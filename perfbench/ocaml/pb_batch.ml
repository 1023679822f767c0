(* The batch workloads: one history file -> one verdict, as `mtc check`
   does it (Codec.load, Checker.check_report at -j 2, Report.render on a
   failure), and the traced decomposition of the same checks into the
   public stages of Checker's pipeline. *)

open Pb_util

type expect = Pass | Fail_any | Fail_lost_update

type kind = Strong of Checker.level * Ts.mode | Weak of Weak_checker.level

type check = { name : string; file : string; kind : kind; expect : expect }

let strong name file level ?(ts = Ts.Ignore) expect =
  { name; file; kind = Strong (level, ts); expect }

let checks = function
  | "batch_clean" ->
      let f = Pb_corpus.clean_file and w = Pb_corpus.weak_file in
      [
        strong "ser" f Checker.SER Pass;
        strong "si" f Checker.SI Pass;
        strong "sser" f Checker.SSER Pass;
        strong "ser_ts" f Checker.SER ~ts:Ts.Verify Pass;
        { name = "ra"; file = w; kind = Weak Weak_checker.Read_atomic; expect = Pass };
        { name = "cc"; file = w; kind = Weak Weak_checker.Causal; expect = Pass };
      ]
  | "batch_faulty" ->
      let f = Pb_corpus.faulty_file in
      [
        strong "si" f Checker.SI Fail_lost_update;
        strong "ser" f Checker.SER Fail_any;
        strong "sser" f Checker.SSER Fail_any;
      ]
  | w -> invalid_arg ("not a batch workload: " ^ w)

let all_check_names = [ "ser"; "si"; "sser"; "ser_ts"; "ra"; "cc" ]

(* The stages the traced run times, in Checker's order. *)
let stage_names =
  [
    "codec.load"; "history.unique_values"; "index.build"; "int_check.check";
    "ts.build"; "int_check.check_ts"; "divergence.find"; "deps.build";
    "cycle.find_csr"; "report.render"; "weak_checker.check";
  ]

let load ~pool c dir =
  match Codec.load ?pool (Filename.concat dir c.file) with
  | Ok h -> h
  | Error e -> failwith (c.file ^ ": " ^ e)

type verdict = V_strong of Checker.outcome | V_weak of Weak_checker.outcome

(* Is the verdict what the corpus guarantees? *)
let judge c v =
  let fails = function
    | V_strong (Checker.Fail (Checker.Malformed _)) -> false
    | V_strong (Checker.Fail _) | V_weak (Weak_checker.Fail _) -> true
    | V_strong Checker.Pass | V_weak Weak_checker.Pass -> false
  in
  match (c.expect, v) with
  | Pass, (V_strong Checker.Pass | V_weak Weak_checker.Pass) -> true
  | Pass, _ -> false
  | Fail_any, v -> fails v
  | Fail_lost_update, V_strong (Checker.Fail viol) ->
      fails v && Report.classify viol = Some Anomaly.Lost_update
  | Fail_lost_update, _ -> false

let describe c v =
  let verdict =
    match v with
    | V_strong o -> Format.asprintf "%a" Checker.pp_outcome o
    | V_weak Weak_checker.Pass -> "PASS"
    | V_weak (Weak_checker.Fail _) -> "FAIL"
  in
  let verdict =
    if String.length verdict > 160 then String.sub verdict 0 160 ^ "..." else verdict
  in
  let wanted =
    match c.expect with
    | Pass -> "PASS"
    | Fail_any -> "a violation (does this seed produce none?)"
    | Fail_lost_update -> "a LostUpdate violation (does this seed produce none?)"
  in
  Printf.sprintf "%s on %s: expected %s, got %s" c.name c.file wanted verdict

(* The whole path of one check, as `mtc check` runs it; returns the
   verdict and the time spent in the checker call alone. *)
let check_file ~pool dir c =
  let h = load ~pool c dir in
  let t0 = now_ns () in
  let v =
    match c.kind with
    | Strong (level, ts) -> V_strong (fst (Checker.check_report ?pool ~ts level h))
    | Weak level -> V_weak (Weak_checker.check level h)
  in
  let checker_ns = now_ns () - t0 in
  (match (c.kind, v) with
  | Strong (level, _), V_strong (Checker.Fail viol) ->
      ignore (Sys.opaque_identity (Report.render h level viol))
  | _ -> ());
  (v, checker_ns)

(* ------------------------------------------------------------------ *)
(* Untraced: the end-to-end metrics. *)

let measure ~dir ~workload ~seconds r =
  let checks = checks workload in
  let pool = Some (Pool.create ~size:2 ()) in
  let walls = Hashtbl.create 8 and peaks = ref [] in
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  let rec round i =
    reset_peak_rss "self";
    List.iter
      (fun c ->
        let t0 = now_ns () in
        let v, _ = check_file ~pool dir c in
        let dt = secs (now_ns () - t0) in
        Hashtbl.add walls c.name dt;
        op r (judge c v) (describe c v))
      checks;
    peaks := peak_rss_mb "self" :: !peaks;
    if i < 3 || now_ns () < t_end then round (i + 1)
  in
  round 1;
  let per_check = List.map (fun c -> Pb_stats.median (Array.of_list (Hashtbl.find_all walls c.name))) checks in
  set r "verdict_s" (List.fold_left ( +. ) 0. per_check);
  List.iter2
    (fun c m -> Printf.eprintf "perfbench: %s %s median %.4f s over %d runs [%s]\n"
        workload c.name m (List.length (Hashtbl.find_all walls c.name))
        (String.concat " " (List.rev_map (Printf.sprintf "%.3f") (Hashtbl.find_all walls c.name))))
    checks per_check;
  median_of r "peak_rss_mb" !peaks;
  Option.iter Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Traced: the stages one by one. *)

(* In the counting pass every stage's allocation is summed by name; in
   the traced pass every stage is a span. *)
let counting = ref false
let alloc = Hashtbl.create 16

let stage ?op name f =
  if !counting then begin
    let a0 = minor_words () in
    let x = f () in
    let d = minor_words () -. a0 in
    Hashtbl.replace alloc name
      (d +. Option.value ~default:0. (Hashtbl.find_opt alloc name));
    x
  end
  else Pb_trace.with_span ?op name f

(* Structural counts of the SER check, seen in the counting pass. *)
let vertices = ref 0
let edges = ref 0

(* Checker.check_report's pipeline through its public stages.  [None]
   when the verdict rests on SI's composition, which is not public: the
   reference check decides it. *)
let decomposed ?op ~pool c level ts h =
  let graph ?ts idx =
    let rt = if level = Checker.SSER then Deps.Rt_sweep else Deps.No_rt in
    let diverged =
      if level = Checker.SI then
        stage ?op "divergence.find" (fun () -> Divergence.find ?pool idx)
      else None
    in
    match diverged with
    | Some inst -> Some (Checker.Fail (Checker.Diverged inst))
    | None -> (
        match stage ?op "deps.build" (fun () -> Deps.build ?pool ?ts ~rt idx) with
        | Error e ->
            Some (Checker.Fail (Checker.Malformed (Format.asprintf "%a" Deps.pp_error e)))
        | Ok d when level = Checker.SI ->
            ignore d;
            None
        | Ok d -> (
            if c.name = "ser" then begin
              vertices := Index.num_vertices idx;
              edges := Csr.num_edges (Deps.freeze d)
            end;
            match stage ?op "cycle.find_csr" (fun () -> Cycle.find_csr (Deps.freeze d)) with
            | None -> Some Checker.Pass
            | Some cyc -> Some (Checker.Fail (Checker.Cyclic (Deps.to_txn_cycle d cyc)))))
  in
  match ts with
  | Ts.Ignore -> (
      match stage ?op "history.unique_values" (fun () -> History.unique_values ?pool h) with
      | Error msg -> Some (Checker.Fail (Checker.Malformed msg))
      | Ok () -> (
          let idx = stage ?op "index.build" (fun () -> Index.build ?pool h) in
          match stage ?op "int_check.check" (fun () -> Int_check.check ?pool idx) with
          | Error v -> Some (Checker.Fail (Checker.Intra v))
          | Ok () -> graph idx))
  | Ts.Trust | Ts.Verify -> (
      let idx = stage ?op "index.build" (fun () -> Index.build_deferred h) in
      match stage ?op "ts.build" (fun () -> Ts.build ?pool ~mode:ts idx) with
      | Error msg -> Some (Checker.Fail (Checker.Malformed msg))
      | Ok tsi -> (
          match stage ?op "int_check.check_ts" (fun () -> Int_check.check_ts ?pool tsi) with
          | Error v -> Some (Checker.Fail (Checker.Intra v))
          | Ok () -> graph ~ts:tsi idx))

(* One check through the stages; returns the decomposed verdict. *)
let staged ?op ~pool dir c =
  let h = stage ?op "codec.load" (fun () -> load ~pool c dir) in
  match c.kind with
  | Weak level ->
      (h, Some (V_weak (stage ?op "weak_checker.check" (fun () -> Weak_checker.check level h))))
  | Strong (level, ts) ->
      let o = decomposed ?op ~pool c level ts h in
      (match o with
      | Some (Checker.Fail v) ->
          ignore (stage ?op "report.render" (fun () -> Report.render h level v))
      | _ -> ());
      (h, Option.map (fun o -> V_strong o) o)

(* The decomposed verdict must be Checker's: equal where every stage is
   public, and for SI past the divergence screen, a verdict the
   composition alone can reach. *)
let agrees dec reference =
  match (dec, reference) with
  | Some d, r -> d = r
  | None, V_strong (Checker.Pass | Checker.Fail (Checker.Cyclic _)) -> true
  | None, _ -> false

let ops_of (h : History.t) =
  Array.fold_left (fun acc (t : Txn.t) -> acc + Array.length t.Txn.ops) 0 h.History.txns

(* The -j 1 counting pass: allocation per stage, GC collections per
   check, and the structural counts. *)
let count_pass dir checks =
  Hashtbl.reset alloc;
  counting := true;
  let files = Hashtbl.create 2 in
  let g0 = Gc.quick_stat () in
  List.iter
    (fun c ->
      let h, _ = staged ~pool:None dir c in
      Hashtbl.replace files c.file (ops_of h))
    checks;
  let g1 = Gc.quick_stat () in
  counting := false;
  let n = float (List.length checks) in
  let counts =
    [
      ("history.ops", float (Hashtbl.fold (fun _ o acc -> acc + o) files 0));
      ("index.vertices", float !vertices);
      ("deps.edges", float !edges);
    ]
    @ List.map
        (fun s ->
          (s ^ ".minor_words", Option.value ~default:0. (Hashtbl.find_opt alloc s)))
        stage_names
  in
  let gc =
    [
      ("ocaml_gc.minor_collections", float (g1.Gc.minor_collections - g0.Gc.minor_collections) /. n);
      ("ocaml_gc.major_collections", float (g1.Gc.major_collections - g0.Gc.major_collections) /. n);
    ]
  in
  (counts, gc)

(* The checks whose every stage is public: all but SI, whose composition
   after Deps.build (and the cycle search over it) only Checker runs. *)
let fully_staged c = c.name <> "si"

(* For a fully staged check, the reference's checker call may spend at
   most this share of its wall outside the stages before the
   decomposition counts as missing work. *)
let max_residual_frac = 0.4

let traced ~dir ~workload ~seconds r =
  let checks = checks workload in
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  (* Exact counts, twice: they must repeat within the run. *)
  let counts, gc = count_pass dir checks in
  let counts', _ = count_pass dir checks in
  List.iter2
    (fun (name, a) (_, b) ->
      op r (a = b) (Printf.sprintf "exact count %s repeated as %.0f then %.0f" name a b))
    counts counts';
  List.iter (fun (n, v) -> set r n v) (counts @ gc);
  let pool = Some (Pool.create ~size:2 ()) in
  Pb_trace.enabled := true;
  let stage_s = Hashtbl.create 16 and levels = Hashtbl.create 8
  and refs = Hashtbl.create 8 and calls = Hashtbl.create 8
  and residual = Hashtbl.create 8 and unaccounted = Hashtbl.create 8 in
  let op_id = ref 0 and rounds = ref 0 in
  let rec round () =
    incr rounds;
    let sums = Hashtbl.create 16 in
    List.iter
      (fun c ->
        incr op_id;
        let oid = !op_id in
        let dec =
          Pb_trace.with_span ~op:oid ("level." ^ c.name) (fun () ->
              snd (staged ~op:oid ~pool dir c))
        in
        (* the untraced reference: the same check as `mtc check` runs it *)
        let t0 = now_ns () in
        let v, checker_ns = check_file ~pool dir c in
        Hashtbl.add refs c.name (secs (now_ns () - t0));
        Hashtbl.add calls c.name (secs checker_ns);
        op r (judge c v) (describe c v);
        op r (agrees dec v)
          (Printf.sprintf "%s: the staged pipeline disagrees with Checker.check" c.name);
        (* this check's spans: the level span and its stages *)
        let mine = List.filter (fun (s : Pb_trace.t) -> s.op = oid) !Pb_trace.spans in
        let check_stages = ref 0. in
        List.iter
          (fun (s : Pb_trace.t) ->
            let d = secs (s.stop - s.start) in
            if s.name = "level." ^ c.name then begin
              Hashtbl.add levels c.name d;
              let self = Pb_stats.self_time (List.map Pb_trace.to_stat mine) (Pb_trace.to_stat s) in
              Hashtbl.add unaccounted c.name (secs self /. d)
            end
            else begin
              Hashtbl.replace sums s.name (d +. Option.value ~default:0. (Hashtbl.find_opt sums s.name));
              if s.name <> "codec.load" && s.name <> "report.render" then
                check_stages := !check_stages +. d
            end)
          mine;
        (* the checker call of this round's reference, less this round's
           stages of the same check *)
        Hashtbl.add residual c.name (secs checker_ns -. !check_stages))
      checks;
    Hashtbl.iter (fun k v -> Hashtbl.add stage_s k v) sums;
    if now_ns () < t_end && !rounds < 5 then round ()
  in
  round ();
  Pb_trace.enabled := false;
  Option.iter Pool.shutdown pool;
  let med tbl k =
    match Hashtbl.find_all tbl k with [] -> 0. | xs -> Pb_stats.median (Array.of_list xs)
  in
  List.iter
    (fun s ->
      (* a stage a round never reached counts 0 in that round *)
      let xs = Hashtbl.find_all stage_s s in
      let xs = xs @ List.init (!rounds - List.length xs) (fun _ -> 0.) in
      set r (s ^ "_s") (Pb_stats.median (Array.of_list xs)))
    stage_names;
  List.iter (fun n -> set r ("checker." ^ n ^ "_s") (med refs n)) all_check_names;
  List.iter
    (fun c ->
      let res = med residual c.name and wall = med calls c.name in
      set r ("checker.residual." ^ c.name ^ "_s") res;
      Printf.eprintf "perfbench: %s residual %.4f s of %.4f s (%.1f%%)\n" c.name res wall
        (100. *. res /. wall);
      if fully_staged c then
        op r (res <= max_residual_frac *. wall)
          (Printf.sprintf "%s: the stages miss %.0f%% of the checker call's wall (at most %.0f%%)"
             c.name (100. *. res /. wall) (100. *. max_residual_frac)))
    checks;
  let complete = List.filter fully_staged checks in
  let sum f = List.fold_left (fun acc c -> acc +. f c.name) 0. complete in
  let traced_s = sum (med levels) and untraced_s = sum (med refs) in
  set r "trace.overhead_frac" ((traced_s -. untraced_s) /. untraced_s);
  set r "trace.unaccounted_frac"
    (List.fold_left (fun acc c -> Float.max acc (med unaccounted c.name)) 0. checks);
  Printf.eprintf "perfbench: traced %d rounds; traced %.4f s vs untraced %.4f s over %s\n"
    !rounds traced_s untraced_s
    (String.concat "," (List.map (fun c -> c.name) complete))
