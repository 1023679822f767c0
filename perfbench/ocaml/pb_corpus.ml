(* Set-up: every input of every workload, generated from the one seed and
   written to the run directory.  The measured phase only ever sees these
   files, as `mtc check` and a monitoring proxy would. *)

(* batch_clean: the full-graph worst case. *)
let clean_txns = 200_000
let weak_txns = 20_000
let clean_keys = 2000
let clean_sessions = 16

(* batch_faulty: an engine SI run with a rare lost-update bug. *)
let faulty_txns = 100_000
let faulty_keys = 200
let faulty_sessions = 16
let faulty_p = 1e-3

(* stream: per service session, one stream for each closed-loop round
   and one for the open loop. *)
let stream_sessions = 2
let closed_rounds = 4
let closed_txns = 50_000
let open_txns = 50_000

let clean_file = "clean.bin"
let weak_file = "weak.bin"
let faulty_file = "faulty.hist"
let closed_file ~round k = Printf.sprintf "closed%d_%d.bin" round k
let open_file k = Printf.sprintf "open%d.bin" k

(* Every corpus gets its own generator seed, derived from the run seed. *)
let sub_seed seed k = (seed * 16) + k

let write_stream ~dir ~num_txns ~seed name =
  let p =
    {
      Stream_gen.default with
      Stream_gen.num_txns;
      num_keys = clean_keys;
      num_sessions = clean_sessions;
      dist = Distribution.Uniform;
      seed;
    }
  in
  let w =
    Codec.Bin_writer.create ~num_keys:clean_keys ~num_sessions:clean_sessions
      (Filename.concat dir name)
  in
  Fun.protect
    ~finally:(fun () -> Codec.Bin_writer.close w)
    (fun () -> Stream_gen.generate p (Codec.Bin_writer.add w))

let write_faulty ~dir ~seed =
  let spec =
    Mt_gen.generate
      {
        Mt_gen.num_sessions = faulty_sessions;
        num_txns = faulty_txns;
        num_keys = faulty_keys;
        dist = Distribution.Uniform;
        seed;
      }
  in
  let db =
    {
      Db.level = Isolation.Snapshot;
      fault = Fault.Lost_update faulty_p;
      num_keys = faulty_keys;
      seed;
    }
  in
  let r =
    Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ()
  in
  Codec.save (Filename.concat dir faulty_file) r.Scheduler.history

let generate ~workload ~seed ~dir =
  match workload with
  | "batch_clean" ->
      write_stream ~dir ~num_txns:clean_txns ~seed:(sub_seed seed 0) clean_file;
      write_stream ~dir ~num_txns:weak_txns ~seed:(sub_seed seed 1) weak_file
  | "batch_faulty" -> write_faulty ~dir ~seed:(sub_seed seed 2)
  | "stream" ->
      for k = 1 to stream_sessions do
        for round = 1 to closed_rounds do
          write_stream ~dir ~num_txns:closed_txns
            ~seed:(sub_seed seed ((2 * round) + k)) (closed_file ~round k)
        done;
        write_stream ~dir ~num_txns:open_txns ~seed:(sub_seed seed (12 + k)) (open_file k)
      done
  | w -> invalid_arg ("unknown workload " ^ w)
