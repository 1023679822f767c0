(* The stream workload: a monitoring proxy feeding a child `mtc serve
   -j 2` (WAL in the run directory, flush policy batch, watermark GC
   auto) over one Unix-socket connection, with two SER sessions.

   Closed loop: each session's whole stream is fed round-robin, then
   synced; capacity is txns fed over first feed -> last verdict.
   Open loop: fresh sessions fed on a fixed aggregate schedule with a
   sync per session every [sync_every] txns; each verdict's lag runs
   from the time its sync was due, not from when it was sent. *)

open Pb_util

(* Picked once and kept fixed so runs compare.  The closed loop reaches
   about 46-58k txns/s on a 2-vCPU VM; at half of that (27k) the open
   loop's backlog grows through the phase (each blocking sync stalls the
   one generator thread), and at 20k it still falls behind when the
   machine runs at the low end of that range.  15k holds. *)
let open_rate = 15_000.
let sync_every = 100

let sock = "mtc.sock"
let addr = Server.A_unix sock

let rm_rf path =
  let rec go p =
    match Unix.lstat p with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun f -> go (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p
    | _ -> Unix.unlink p
  in
  go path

type server = { pid : int; mutable live : bool }

let stop_server s =
  if s.live then begin
    s.live <- false;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now_ns () + 20_000_000_000 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when now_ns () < deadline -> Unix.sleepf 0.01; reap ()
      | 0, _ ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] s.pid)
      | _ -> ()
    in
    reap ()
  end

(* A fresh server and a fresh WAL directory, in the current directory
   (the run directory).  Returns once a client can connect. *)
let start_server ~mtc =
  rm_rf "wal";
  rm_rf sock;
  let log = Unix.openfile "serve.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process mtc
      [| mtc; "serve"; "-j"; "2"; "--listen"; "unix:" ^ sock; "--wal-dir"; "wal";
         "--wal-sync"; "batch"; "--gc-watermark"; "auto" |]
      Unix.stdin log log
  in
  Unix.close log;
  let s = { pid; live = true } in
  let deadline = now_ns () + 20_000_000_000 in
  let rec wait () =
    match (if Sys.file_exists sock then Client.connect addr else Error "no socket") with
    | Ok c -> Client.close c
    | Error e ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> s.live <- false; failwith "mtc serve exited at start (see serve.log)");
        if now_ns () > deadline then begin
          stop_server s;
          failwith ("mtc serve did not come up: " ^ e)
        end;
        Unix.sleepf 0.002;
        wait ()
  in
  wait ();
  s

let load_stream file =
  match Codec.load file with
  | Ok h -> Array.of_list (Client.stream_order h)
  | Error e -> failwith (file ^ ": " ^ e)

let ok_or_fail r what = function
  | Ok x -> Some x
  | Error e -> op r false (what ^ ": " ^ e); None

let open_sessions r c =
  Array.init Pb_corpus.stream_sessions (fun _ ->
      match
        ok_or_fail r "open_session"
          (Client.open_session c ~level:Checker.SER ~num_keys:Pb_corpus.clean_keys ())
      with
      | Some sid -> sid
      | None -> failwith "cannot open a session")

(* Feed one txn; counted as an operation. *)
let feed r c sid txn =
  match Client.feed c ~sid txn with
  | Ok Client.Accepted -> op r true ""
  | Ok (Client.Early_verdict _) -> op r false (Printf.sprintf "session %d: violation on a clean stream" sid)
  | Error e -> op r false (Printf.sprintf "feed on session %d: %s" sid e)

(* Sync; the verdict must be V_ok of exactly the txns fed. *)
let sync r c sid ~fed =
  let ok =
    match Client.sync c ~sid with
    | Ok (Wire.V_ok n) when n = fed -> Ok ()
    | Ok (Wire.V_ok n) -> Error (Printf.sprintf "V_ok %d after %d fed" n fed)
    | Ok (Wire.V_violation _) -> Error "violation on a clean stream"
    | Error e -> Error e
  in
  let ok =
    match (ok, Client.session_closed c ~sid) with
    | Ok (), Some _ -> Error "session closed unexpectedly"
    | x, _ -> x
  in
  match ok with
  | Ok () -> op r true ""
  | Error e -> op r false (Printf.sprintf "sync on session %d: %s" sid e)

(* Each server's counters, read after the last sync and before the
   sessions close: the live-words gauge is a current value, and closing
   a session drops its share. *)
type servers = {
  mutable starts : float list;
  mutable stats : string list;
  mutable ticks : int;
}

let read_stats r sv c =
  Option.iter (fun j -> sv.stats <- j :: sv.stats) (ok_or_fail r "stats" (Client.stats c))

type live = {
  mutable feed_ns : float list;
  mutable sync_ns : float list;
  mutable lag_ns : float list;
  mutable late_ns : float list;
}

(* One closed-loop round on fresh sessions; returns the wall time first
   feed -> last verdict. *)
let closed_loop r c streams ~trace lv sv =
  let sids = open_sessions r c in
  let n = Array.length streams.(0) in
  let t0 = now_ns () in
  for i = 0 to n - 1 do
    Array.iteri
      (fun k sid ->
        if trace then begin
          let a = now_ns () in
          feed r c sid streams.(k).(i);
          lv.feed_ns <- float (now_ns () - a) :: lv.feed_ns
        end
        else feed r c sid streams.(k).(i))
      sids
  done;
  Array.iter (fun sid -> sync r c sid ~fed:n) sids;
  let wall = now_ns () - t0 in
  read_stats r sv c;
  Array.iter (fun sid -> ignore (ok_or_fail r "close_session" (Client.close_session c ~sid))) sids;
  wall

(* Sleep until [due]: never send early. *)
let wait_until due =
  let ahead = due - now_ns () in
  if ahead > 0 then Unix.sleepf (float ahead /. 1e9)

(* Open loop at [open_rate]; every due event records how late it went
   out, every sync the lag from its due time to its verdict. *)
let open_loop r c streams lv sv =
  let sids = open_sessions r c in
  let n = Array.length streams.(0) in
  let ns_per_txn = 1e9 /. open_rate in
  let t0 = now_ns () + 1_000_000 in
  let due j = t0 + int_of_float (float j *. ns_per_txn) in
  let j = ref 0 and last_late = ref 0 in
  for i = 0 to n - 1 do
    Array.iteri
      (fun k sid ->
        let d = due !j in
        incr j;
        wait_until d;
        let sent = now_ns () in
        lv.late_ns <- float (sent - d) :: lv.late_ns;
        last_late := sent - d;
        feed r c sid streams.(k).(i);
        if (i + 1) mod sync_every = 0 || i = n - 1 then begin
          let s0 = now_ns () in
          sync r c sid ~fed:(i + 1);
          let arrived = now_ns () in
          lv.sync_ns <- float (arrived - s0) :: lv.sync_ns;
          Pb_trace.add ~op:sid "client.sync" ~start:s0 ~stop:arrived;
          lv.lag_ns <- float (Pb_stats.lag ~scheduled:d ~arrived) :: lv.lag_ns
        end)
      sids
  done;
  read_stats r sv c;
  Array.iter (fun sid -> ignore (ok_or_fail r "close_session" (Client.close_session c ~sid))) sids;
  !last_late

(* A number after "key": in the server's one-line stats JSON, optionally
   inside the object that follows "within":. *)
let json_num ?within json key =
  let from =
    match within with
    | None -> 0
    | Some w ->
        let pat = "\"" ^ w ^ "\":{" in
        let rec find i =
          if i + String.length pat > String.length json then failwith ("no " ^ w)
          else if String.sub json i (String.length pat) = pat then i
          else find (i + 1)
        in
        find 0
  in
  let pat = "\"" ^ key ^ "\":" in
  let rec find i =
    if i + String.length pat > String.length json then failwith ("no " ^ key)
    else if String.sub json i (String.length pat) = pat then i + String.length pat
    else find (i + 1)
  in
  let i = find from in
  let j = ref i in
  while !j < String.length json && (match json.[!j] with '0' .. '9' | '.' | '-' | 'e' | '+' -> true | _ -> false) do
    incr j
  done;
  float_of_string (String.sub json i (!j - i))

(* The servers' counters, summed, or the largest (high-water marks,
   pauses, a mean per feed), over the run's servers. *)
let server_counters =
  [
    ("server.throttles", `Sum, None, "throttles");
    ("server.queue_high_water", `Max, None, "queue_high_water");
    ("server.gc_runs", `Sum, None, "gc_runs");
    ("server.gc_ns_max", `Max, Some "gc_ns", "max");
    ("server.gc_reclaimed_words", `Sum, None, "gc_reclaimed_words");
    ("server.live_words", `Max, None, "live_words");
    ("server.wal_bytes", `Sum, None, "wal_bytes");
    ("server.wal_fsyncs", `Sum, None, "wal_fsyncs");
    ("server.feed_words_mean", `Max, Some "feed_words", "mean");
    ("server.epoll_wakeups", `Sum, None, "epoll_wakeups");
  ]

let ms xs = List.map (fun x -> x /. 1e6) xs
let us xs = List.map (fun x -> x /. 1e3) xs

let tail_of r name ~p xs ~count_name =
  match xs with
  | [] -> ()
  | _ ->
      let a = Array.of_list xs in
      let used, v = Pb_stats.tail a p in
      set r name v;
      if used < p then
        Printf.eprintf "perfbench: %s: only %d %s, reported p%g\n" name
          (Array.length a) count_name (used *. 100.)

(* ------------------------------------------------------------------ *)
(* The live phases, shared by both runs. *)

(* Every phase gets a fresh server; its start is set-up and what [f] does
   with the connection is measured. *)
let with_server ~mtc sv f =
  let t0 = now_ns () in
  let s = start_server ~mtc in
  sv.starts <- secs (now_ns () - t0) :: sv.starts;
  Fun.protect ~finally:(fun () -> stop_server s) @@ fun () ->
  let c = match Client.connect addr with Ok c -> c | Error e -> failwith ("connect: " ^ e) in
  let k0 = cpu_ticks s.pid in
  let x = f (string_of_int s.pid) c in
  sv.ticks <- sv.ticks + (cpu_ticks s.pid - k0);
  Client.close c;
  x

(* Closed-loop rounds, each on its own pair of streams and server, then,
   in the traced run, the open loop.  The untraced run repeats rounds
   until --seconds is spent, and at least once more than there are stream
   pairs, so that a pair repeats.  The traced run's round count follows from --seconds alone
   (the open loop's share taken out, about 2 s a round on a 2-vCPU VM),
   so the servers' counters it reports repeat exactly for equal
   arguments.  Returns the median server start time. *)
let live ~mtc ~dir ~seconds ~trace r =
  Sys.chdir dir;
  let closed =
    Array.init Pb_corpus.closed_rounds (fun round ->
        Array.init Pb_corpus.stream_sessions (fun k ->
            load_stream (Pb_corpus.closed_file ~round:(round + 1) (k + 1))))
  in
  let total a = Array.fold_left (fun acc s -> acc + Array.length s) 0 a in
  let lv = { feed_ns = []; sync_ns = []; lag_ns = []; late_ns = [] } in
  let sv = { starts = []; stats = []; ticks = 0 } in
  let open_s =
    if trace then float (Pb_corpus.stream_sessions * Pb_corpus.open_txns) /. open_rate else 0.
  in
  let fixed_rounds = Stdlib.max 3 (truncate ((seconds -. open_s) /. 2.)) in
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  let more i =
    if trace then i < fixed_rounds else i <= Pb_corpus.closed_rounds || now_ns () < t_end
  in
  let walls = ref [] and peaks = ref [] and counts = Hashtbl.create 4 in
  let rec round i =
    if not (more i) then i
    else begin
      let pair = i mod Pb_corpus.closed_rounds in
      with_server ~mtc sv (fun pid c ->
          let wall =
            Pb_trace.with_span ~op:(i + 1) "stream.closed_loop" (fun () ->
                closed_loop r c closed.(pair) ~trace lv sv)
          in
          walls := float wall :: !walls;
          peaks := peak_rss_mb pid :: !peaks);
      (* a round that replays a pair on a fresh server must log the same
         WAL bytes and run the same compactions *)
      (match sv.stats with
      | json :: _ -> (
          let c = (json_num json "wal_bytes", json_num json "gc_runs") in
          match Hashtbl.find_opt counts pair with
          | Some c0 ->
              op r (c = c0)
                (Printf.sprintf "exact counts of stream pair %d changed: wal_bytes %.0f -> %.0f, \
                                 gc_runs %.0f -> %.0f" pair (fst c0) (fst c) (snd c0) (snd c))
          | None -> Hashtbl.replace counts pair c)
      | [] -> ());
      round (i + 1)
    end
  in
  let rounds = round 0 in
  let wall = Pb_stats.median (Array.of_list !walls) in
  let per_round = total closed.(0) in
  set r "verdict_s" (wall /. 1e9);
  median_of r "peak_rss_mb" !peaks;
  Printf.eprintf "perfbench: stream closed loop %d rounds of %d txns, median %.3f s (%.0f txns/s) [%s]\n"
    rounds per_round (wall /. 1e9) (float per_round /. wall *. 1e9)
    (String.concat " " (List.rev_map (fun w -> Printf.sprintf "%.3f" (w /. 1e9)) !walls));
  if trace then begin
    let opened =
      Array.init Pb_corpus.stream_sessions (fun k -> load_stream (Pb_corpus.open_file (k + 1)))
    in
    let last_late =
      with_server ~mtc sv (fun _ c ->
          Pb_trace.with_span "stream.open_loop" (fun () -> open_loop r c opened lv sv))
    in
    let txns = (rounds * per_round) + total opened in
    let behind = last_late > 100_000_000 in
    if behind then
      Printf.eprintf "perfbench: the open-loop generator fell behind (%.1f ms late at the end)\n"
        (float last_late /. 1e6);
    let lag = Array.of_list (ms lv.lag_ns) in
    Printf.eprintf
      "perfbench: open loop at %.0f txns/s, %d syncs, lag p50 %.3f ms; WAL in %s (sync batch)\n"
      open_rate (Array.length lag) (Pb_stats.median lag) (Filename.concat dir "wal");
    set r "stream.txns_per_s" (float per_round /. wall *. 1e9);
    set r "stream.verdict_lag_ms_p50" (Pb_stats.median lag);
    tail_of r "stream.verdict_lag_ms_p99" ~p:0.99 (ms lv.lag_ns) ~count_name:"syncs";
    set r "stream.lag_samples" (float (Array.length lag));
    set r "client.feed_us_p50" (Pb_stats.median (Array.of_list (us lv.feed_ns)));
    tail_of r "client.feed_us_p99" ~p:0.99 (us lv.feed_ns) ~count_name:"feeds";
    set r "client.sync_ms_p50" (Pb_stats.median (Array.of_list (ms lv.sync_ns)));
    tail_of r "client.sync_ms_p99" ~p:0.99 (ms lv.sync_ns) ~count_name:"syncs";
    tail_of r "loadgen.late_ms_p99" ~p:0.99 (ms lv.late_ns) ~count_name:"events";
    set r "loadgen.behind" (if behind then 1. else 0.);
    (* /proc/<pid>/stat counts in clock ticks of 1/100 s *)
    set r "server.cpu_us_per_txn" (float sv.ticks *. 1e4 /. float txns);
    List.iter
      (fun (name, agg, within, key) ->
        let xs = List.map (fun j -> json_num ?within j key) sv.stats in
        set r name
          (match agg with
          | `Sum -> List.fold_left ( +. ) 0. xs
          | `Max -> List.fold_left Float.max 0. xs))
      server_counters
  end;
  Pb_stats.median (Array.of_list sv.starts)

(* Wire: encode + decode of each Feed frame. *)
let replay_wire r streams ~txns =
  let scratch = Buffer.create 256 and out = Buffer.create 256 in
  let t0 = now_ns () in
  Array.iteri
    (fun k s ->
      Array.iteri
        (fun i txn ->
          Buffer.clear out;
          Wire.encode ~scratch out (Wire.Feed { sid = k + 1; seq = i + 1; txn });
          match Wire.of_string (Buffer.contents out) with
          | Ok (Wire.Feed f, _) -> op r (f.txn = txn) "wire roundtrip changed a Feed frame"
          | _ -> op r false "wire roundtrip lost a Feed frame")
        s)
    streams;
  set r "wire.roundtrip_ns" (float (now_ns () - t0) /. float txns)

(* Online with watermark GC auto: one checker per session.  A call
   during which gc_runs advanced is a compaction pause. *)
let replay_online r streams ~n ~txns =
  let add_ns = Array.make txns 0. and pauses = ref [] and words = ref 0. in
  Array.iteri
    (fun k s ->
      let o = Online.create ~gc:Online.Gc_auto ~level:Checker.SER ~num_keys:Pb_corpus.clean_keys () in
      Array.iteri
        (fun i txn ->
          let g = Online.gc_runs o in
          let w0 = minor_words () in
          let a = now_ns () in
          let step = Online.add_txn o txn in
          let b = now_ns () in
          words := !words +. (minor_words () -. w0);
          add_ns.((k * n) + i) <- float (b - a);
          if Online.gc_runs o > g then begin
            pauses := float (b - a) :: !pauses;
            Pb_trace.add ~op:(k + 1) "online.gc" ~start:a ~stop:b
          end;
          if step <> Online.Ok_so_far then op r false "online checker rejected a clean stream")
        s;
      op r (Online.txns_seen o = n) "online checker lost transactions")
    streams;
  let add_us = Array.map (fun x -> x /. 1e3) add_ns in
  set r "online.add_txn_us_p50" (Pb_stats.median add_us);
  tail_of r "online.add_txn_us_p99" ~p:0.99 (Array.to_list add_us) ~count_name:"add_txn calls";
  (match !pauses with
  | [] -> ()
  | ps ->
      (* a few dozen compactions: a median and the max, no tail *)
      set r "online.gc_pause_ms_max" (List.fold_left Float.max 0. (ms ps));
      set r "online.gc_pause_ms_p50" (Pb_stats.median (Array.of_list (ms ps)));
      set r "online.gc_runs" (float (List.length ps)));
  set r "online.words_per_txn" (!words /. float txns)

(* WAL: one R_feed per txn, Batch policy, a barrier at each sync point. *)
let replay_wal r streams ~n ~txns ~dir =
  let path = Filename.concat dir "replay.wal" in
  let w = Wal.create ~path ~shard:0 ~nshards:1 ~gen:0 ~sync:Wal.Batch () in
  let append_ns = ref 0 and barrier_ns = ref [] in
  Fun.protect ~finally:(fun () -> Wal.close w; rm_rf path) @@ fun () ->
  for i = 0 to n - 1 do
    Array.iteri
      (fun k s ->
        let a = now_ns () in
        ignore (Wal.append w (Wal.R_feed { sid = k + 1; seq = i + 1; txn = s.(i) }));
        append_ns := !append_ns + (now_ns () - a);
        if (i + 1) mod sync_every = 0 || i = n - 1 then begin
          let b = now_ns () in
          Wal.barrier w;
          barrier_ns := float (now_ns () - b) :: !barrier_ns
        end)
      streams
  done;
  set r "wal.append_us" (float !append_ns /. 1e3 /. float txns);
  set r "wal.barrier_ms_p50" (Pb_stats.median (Array.of_list (ms !barrier_ns)));
  tail_of r "wal.barrier_ms_p99" ~p:0.99 (ms !barrier_ns) ~count_name:"barriers"

(* Replay: the open-loop streams in-process, one layer at a time. *)
let replay ~dir r =
  let streams =
    Array.init Pb_corpus.stream_sessions (fun k ->
        load_stream (Filename.concat dir (Pb_corpus.open_file (k + 1))))
  in
  let n = Array.length streams.(0) in
  let txns = n * Array.length streams in
  Pb_trace.with_span "replay.wire" (fun () -> replay_wire r streams ~txns);
  Pb_trace.with_span "replay.online" (fun () -> replay_online r streams ~n ~txns);
  Pb_trace.with_span "replay.wal" (fun () -> replay_wal r streams ~n ~txns ~dir)
