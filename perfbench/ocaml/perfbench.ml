(* The benchmark program.

     perfbench.exe selftest
     perfbench.exe setup WORKLOAD SEED DIR
     perfbench.exe run --workload W --seed N --seconds S --trace 0|1
                       --dir DIR --mtc PATH

   [run] sets up five times (each a fresh [setup] process, timed),
   measures, checks every verdict and prints one JSON object as its last
   line: the end-to-end metrics untraced, the per-layer metrics traced.
   perfbench/run.py builds this program and calls it. *)

open Pb_util

let end_to_end =
  [ ("setup_s", "s"); ("verdict_s", "s"); ("peak_rss_mb", "MB"); ("ok_frac", "ratio") ]

let stage_metrics =
  List.concat_map
    (fun s -> [ (s ^ "_s", "s"); (s ^ ".minor_words", "words") ])
    Pb_batch.stage_names

let per_layer =
  stage_metrics
  @ List.map (fun n -> ("checker." ^ n ^ "_s", "s")) Pb_batch.all_check_names
  @ List.map (fun n -> ("checker.residual." ^ n ^ "_s", "s")) Pb_batch.all_check_names
  @ [
      ("trace.overhead_frac", "ratio"); ("trace.unaccounted_frac", "ratio");
      ("history.ops", "count"); ("index.vertices", "count"); ("deps.edges", "count");
      ("ocaml_gc.minor_collections", "count"); ("ocaml_gc.major_collections", "count");
      ("stream.txns_per_s", "txns/s"); ("stream.verdict_lag_ms_p50", "ms");
      ("stream.verdict_lag_ms_p99", "ms"); ("stream.lag_samples", "count");
      ("client.feed_us_p50", "us"); ("client.feed_us_p99", "us");
      ("client.sync_ms_p50", "ms"); ("client.sync_ms_p99", "ms");
      ("loadgen.late_ms_p99", "ms"); ("loadgen.behind", "flag");
      ("server.cpu_us_per_txn", "us");
      ("server.throttles", "count"); ("server.queue_high_water", "count");
      ("server.gc_runs", "count"); ("server.gc_ns_max", "ns");
      ("server.gc_reclaimed_words", "words"); ("server.live_words", "words");
      ("server.wal_bytes", "bytes"); ("server.wal_fsyncs", "count");
      ("server.feed_words_mean", "words"); ("server.epoll_wakeups", "count");
      ("wire.roundtrip_ns", "ns");
      ("online.add_txn_us_p50", "us"); ("online.add_txn_us_p99", "us");
      ("online.gc_pause_ms_max", "ms"); ("online.gc_pause_ms_p50", "ms");
      ("online.gc_runs", "count"); ("online.words_per_txn", "words");
      ("wal.append_us", "us"); ("wal.barrier_ms_p50", "ms"); ("wal.barrier_ms_p99", "ms");
    ]

(* Set-up: five fresh [setup] processes, each timed from spawn to exit. *)
let timed_setups ~workload ~seed ~dir =
  let times =
    List.init 5 (fun _ ->
        let t0 = now_ns () in
        let pid =
          Unix.create_process Sys.executable_name
            [| Sys.executable_name; "setup"; workload; string_of_int seed; dir |]
            Unix.stdin Unix.stdout Unix.stderr
        in
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith "set-up failed");
        secs (now_ns () - t0))
  in
  Pb_stats.median (Array.of_list times)

let run ~workload ~seed ~seconds ~trace ~dir ~mtc =
  Pb_stream.rm_rf dir;
  Unix.mkdir dir 0o755;
  let r = result () in
  let setup_s = timed_setups ~workload ~seed ~dir in
  (match (workload, trace) with
  | "stream", false ->
      let start_s = Pb_stream.live ~mtc ~dir ~seconds ~trace:false r in
      set r "setup_s" (setup_s +. start_s)
  | "stream", true ->
      Pb_trace.enabled := true;
      ignore (Pb_stream.live ~mtc ~dir ~seconds ~trace:true r);
      Pb_stream.replay ~dir r
  | _, false ->
      Pb_batch.measure ~dir ~workload ~seconds r;
      set r "setup_s" setup_s
  | _, true -> Pb_batch.traced ~dir ~workload ~seconds r);
  if trace then Pb_trace.write (Filename.concat dir "trace.jsonl")
  else set r "ok_frac" (1. -. (float r.failed /. float (Stdlib.max 1 r.attempted)));
  let table = if trace then per_layer else end_to_end in
  let missing = ref [] in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match Hashtbl.find_opt r.metrics name with
          | Some v when Float.is_finite v -> v
          | _ ->
              (* a layer this workload does not reach reads 0 *)
              if not trace then missing := name :: !missing;
              0.
        in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      table
  in
  List.iter (fun m -> prerr_endline ("perfbench: no value for " ^ m)) !missing;
  let correct = r.failed = 0 && !missing = [] && r.attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (Stdlib.max 1 r.attempted) r.failed (String.concat ", " metrics)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "selftest" ] -> (
      match Pb_stats.self_test () with
      | [] -> print_endline "perfbench: self-test passed"
      | fails ->
          List.iter (fun f -> prerr_endline ("perfbench: self-test FAILED: " ^ f)) fails;
          exit 1)
  | [ "setup"; workload; seed; dir ] ->
      Pb_corpus.generate ~workload ~seed:(int_of_string seed) ~dir
  | "run" :: args -> (
      let get k =
        let rec go = function
          | a :: v :: _ when a = k -> v
          | _ :: tl -> go tl
          | [] -> failwith ("missing " ^ k)
        in
        go args
      in
      try
        run ~workload:(get "--workload") ~seed:(int_of_string (get "--seed"))
          ~seconds:(float_of_string (get "--seconds"))
          ~trace:(get "--trace" = "1") ~dir:(get "--dir") ~mtc:(get "--mtc")
      with e ->
        prerr_endline ("perfbench: error: " ^ Printexc.to_string e);
        exit 1)
  | _ ->
      prerr_endline "usage: perfbench.exe selftest | setup W SEED DIR | run ...";
      exit 2
