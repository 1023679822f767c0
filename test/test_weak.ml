(* Tests for Weak_checker: READ COMMITTED, READ ATOMIC and CAUSAL over MT
   histories (the paper's future-work extension). *)

let checkb = Alcotest.check Alcotest.bool

open Builder

let all_levels =
  [ Weak_checker.Read_committed; Weak_checker.Read_atomic; Weak_checker.Causal ]

(* Expected verdicts of the Figure 5 catalogue per weak level. *)
let expected kind (level : Weak_checker.level) =
  if Anomaly.intra kind then false
  else
    match (kind, level) with
    | (Anomaly.Long_fork | Anomaly.Lost_update | Anomaly.Write_skew), _ -> true
    | ( (Anomaly.Session_guarantee_violation | Anomaly.Causality_violation),
        (Weak_checker.Read_committed | Weak_checker.Read_atomic) ) ->
        true
    | (Anomaly.Session_guarantee_violation | Anomaly.Causality_violation),
      Weak_checker.Causal ->
        false
    | ( (Anomaly.Non_monotonic_read | Anomaly.Fractured_read),
        Weak_checker.Read_committed ) ->
        true
    | (Anomaly.Non_monotonic_read | Anomaly.Fractured_read),
      (Weak_checker.Read_atomic | Weak_checker.Causal) ->
        false
    | _ -> false (* intra kinds, matched above *)

let test_catalogue () =
  List.iter
    (fun kind ->
      let h = Anomaly.history kind in
      List.iter
        (fun level ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "%s at %s" (Anomaly.name kind)
               (Weak_checker.level_name level))
            (expected kind level)
            (Weak_checker.passes (Weak_checker.check level h)))
        all_levels)
    Anomaly.all

let test_g1c_cycle () =
  (* Mutual reads-from: T1 reads T2's write and vice versa — a pure
     WR-cycle that RC must reject even though the INT screen passes. *)
  let h =
    history ~keys:2 ~sessions:2
      [
        txn ~session:1 [ r 0 0; w 0 1; r 1 4 ];
        txn ~session:2 [ r 1 0; w 1 4; r 0 1 ];
      ]
  in
  (match Weak_checker.check_rc h with
  | Weak_checker.Fail (Weak_checker.G1c_cycle _) -> ()
  | _ -> Alcotest.fail "expected a G1c cycle");
  checkb "SER agrees" false (Checker.passes (Checker.check_ser h))

let test_fractured_payload () =
  match Weak_checker.check_ra (Anomaly.history Anomaly.Fractured_read) with
  | Weak_checker.Fail (Weak_checker.Fractured { reader = 2; writer = 1; _ }) ->
      ()
  | Weak_checker.Fail v ->
      Alcotest.failf "wrong violation: %s"
        (Format.asprintf "%a" Weak_checker.pp_violation v)
  | Weak_checker.Pass -> Alcotest.fail "fractured read passed RA"

let test_causality_payload () =
  match
    Weak_checker.check_causal (Anomaly.history Anomaly.Causality_violation)
  with
  | Weak_checker.Fail
      (Weak_checker.Causality { reader = 3; missed_writer = 1; stale_key = 0 })
    ->
      ()
  | Weak_checker.Fail v ->
      Alcotest.failf "wrong violation: %s"
        (Format.asprintf "%a" Weak_checker.pp_violation v)
  | Weak_checker.Pass -> Alcotest.fail "causality violation passed CC"

let test_session_guarantee_is_causal_only () =
  let h = Anomaly.history Anomaly.Session_guarantee_violation in
  checkb "RA passes" true (Weak_checker.passes (Weak_checker.check_ra h));
  match Weak_checker.check_causal h with
  | Weak_checker.Fail (Weak_checker.Causality { missed_writer = 1; _ }) -> ()
  | _ -> Alcotest.fail "expected a causality violation on the own session"

let test_blind_write_rejected () =
  let t1 = Txn.make ~id:1 ~session:1 [ Op.Write (0, 1) ] in
  let h = History.make ~num_keys:1 ~num_sessions:1 [ t1 ] in
  match Weak_checker.check_ra h with
  | Weak_checker.Fail (Weak_checker.Malformed _) -> ()
  | _ -> Alcotest.fail "blind writes are not MT histories"

let test_empty_history () =
  let h = history ~keys:2 ~sessions:1 [] in
  List.iter
    (fun level ->
      checkb "empty passes" true (Weak_checker.passes (Weak_checker.check level h)))
    all_levels

let test_long_chain_passes () =
  let txns =
    List.init 50 (fun i -> txn ~session:1 [ r 0 i; w 0 (i + 1) ])
  in
  let h = history ~keys:1 ~sessions:1 txns in
  List.iter
    (fun level ->
      checkb "chain passes" true
        (Weak_checker.passes (Weak_checker.check level h)))
    all_levels

let run_engine ~level ~fault ~seed =
  let spec =
    Mt_gen.generate { Mt_gen.default with num_txns = 300; num_keys = 10; seed }
  in
  let db = { Db.level; fault; num_keys = 10; seed } in
  (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ())
    .Scheduler.history

let test_engine_lattice () =
  (* SI pass => CC pass => RA pass => RC pass on engine histories, clean
     and faulty. *)
  List.iter
    (fun fault ->
      for seed = 1 to 3 do
        let h = run_engine ~level:Isolation.Snapshot ~fault ~seed in
        let si = Checker.passes (Checker.check_si h) in
        let cc = Weak_checker.passes (Weak_checker.check_causal h) in
        let ra = Weak_checker.passes (Weak_checker.check_ra h) in
        let rc = Weak_checker.passes (Weak_checker.check_rc h) in
        checkb "SI => CC" true ((not si) || cc);
        checkb "CC => RA" true ((not cc) || ra);
        checkb "RA => RC" true ((not ra) || rc)
      done)
    [ Fault.No_fault; Fault.Lost_update 0.2; Fault.Causality_violation 0.1;
      Fault.Aborted_read 0.1 ]

let test_rc_engine_passes_rc () =
  for seed = 1 to 3 do
    let h = run_engine ~level:Isolation.Read_committed ~fault:Fault.No_fault ~seed in
    checkb "RC engine passes RC" true
      (Weak_checker.passes (Weak_checker.check_rc h))
  done

let test_causality_fault_breaks_cc_not_rc () =
  let spec = Targeted.observers ~keys:8 ~txns:1500 ~seed:4 () in
  let db =
    { Db.level = Isolation.Snapshot; fault = Fault.Causality_violation 0.1;
      num_keys = 8; seed = 4 }
  in
  let h = (Scheduler.run ~db ~spec ()).Scheduler.history in
  checkb "RC still passes" true (Weak_checker.passes (Weak_checker.check_rc h));
  checkb "CC broken" false (Weak_checker.passes (Weak_checker.check_causal h))

(* --- differential: the CSR pipeline against the list-based reference --- *)

module Ref = Ref_weak_checker

let ref_level = function
  | Weak_checker.Read_committed -> Ref.Read_committed
  | Weak_checker.Read_atomic -> Ref.Read_atomic
  | Weak_checker.Causal -> Ref.Causal

(* A real hb cycle: closed, and every edge an SO generator pair or a WR
   edge (the target's external read returns the source's final write). *)
let is_hb_cycle h cycle =
  let so = History.so_pairs h in
  let edge_ok (a, dep, b) =
    match dep with
    | Deps.SO -> List.mem (a, b) so
    | Deps.WR k -> (
        match Ref_txn.read_of (History.txn h b) k with
        | Some v -> Ref_txn.write_of (History.txn h a) k = Some v
        | None -> false)
    | Deps.RT | Deps.WW _ | Deps.RW _ | Deps.Rt_chain -> false
  in
  let rec closed = function
    | (_, _, b) :: (((a, _, _) :: _) as rest) -> a = b && closed rest
    | [ (_, _, b) ] -> (
        match cycle with (a, _, _) :: _ -> a = b | [] -> false)
    | [] -> false
  in
  closed cycle && List.for_all edge_ok cycle

(* Same outcome; same payload except that an hb cycle may be another
   real one. *)
let agrees h (expected : Ref.outcome) (actual : Weak_checker.outcome) =
  match (expected, actual) with
  | Ref.Pass, Weak_checker.Pass -> true
  | Ref.Fail (Ref.Intra a), Weak_checker.Fail (Weak_checker.Intra b) -> a = b
  | Ref.Fail (Ref.G1c_cycle a), Weak_checker.Fail (Weak_checker.G1c_cycle b)
    ->
      a = b
  | ( Ref.Fail (Ref.Fractured a),
      Weak_checker.Fail (Weak_checker.Fractured b) ) ->
      a.reader = b.reader && a.writer = b.writer && a.read_key = b.read_key
      && a.stale_key = b.stale_key
  | ( Ref.Fail (Ref.Causality a),
      Weak_checker.Fail (Weak_checker.Causality b) ) ->
      a.reader = b.reader && a.stale_key = b.stale_key
      && a.missed_writer = b.missed_writer
  | Ref.Fail (Ref.Hb_cycle _), Weak_checker.Fail (Weak_checker.Hb_cycle b) ->
      is_hb_cycle h b
  | Ref.Fail (Ref.Malformed a), Weak_checker.Fail (Weak_checker.Malformed b)
    ->
      a = b
  | _ -> false

let render_ref = function
  | Ref.Pass -> "PASS"
  | Ref.Fail v -> Format.asprintf "%a" Ref.pp_violation v

let render = function
  | Weak_checker.Pass -> "PASS"
  | Weak_checker.Fail v -> Format.asprintf "%a" Weak_checker.pp_violation v

(* The first level where the two checkers disagree, described. *)
let disagreement h =
  List.find_map
    (fun level ->
      let expected = Ref.check (ref_level level) h in
      let actual = Weak_checker.check level h in
      if agrees h expected actual then None
      else
        Some
          (Printf.sprintf "%s: reference %s, got %s"
             (Weak_checker.level_name level)
             (render_ref expected) (render actual)))
    all_levels

let test_catalogue_matches_reference () =
  List.iter
    (fun kind ->
      match disagreement (Anomaly.history kind) with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: %s" (Anomaly.name kind) msg)
    Anomaly.all

(* Random RMW histories whose reads pick any writer of the key — earlier,
   later or the initial one — so cycles of every kind, fractured and
   stale reads all occur; a few blind writes make some malformed.  Rates
   are per mille and vary with the seed. *)
let random_mt ~seed ~keys ~txns ~sessions =
  let rng = Random.State.make [| seed |] in
  let later = [| 0; 2; 10 |].(seed mod 3)
  and blind = [| 0; 5 |].(seed / 3 mod 2)
  and stale = [| 20; 300 |].(seed / 6 mod 2) in
  let shape =
    Array.init txns (fun _ ->
        let k1 = Random.State.int rng keys in
        let k2 = (k1 + 1 + Random.State.int rng (keys - 1)) mod keys in
        if Random.State.int rng 1000 < blind then `Blind [ k2; k1 ]
        else
          match Random.State.int rng 3 with
          | 0 -> `Rmw [ k1 ]
          | 1 -> `Rmw [ k1; k2 ]
          | _ -> `Ro [ k1; k2 ])
  in
  let writers = Array.make keys [ 0 ] in
  Array.iteri
    (fun i sh ->
      match sh with
      | `Blind ks | `Rmw ks ->
          List.iter (fun k -> writers.(k) <- (i + 1) :: writers.(k)) ks
      | `Ro _ -> ())
    shape;
  (* Mostly the latest earlier version, sometimes an older one (stale
     and fractured reads), rarely a later one (G1c and hb cycles). *)
  let read ~later self k =
    let earlier = List.filter (fun j -> j < self) writers.(k) in
    let pool =
      if Random.State.int rng 1000 < later then
        List.filter (( <> ) self) writers.(k)
      else if Random.State.int rng 1000 < stale then earlier
      else [ List.hd earlier ]
    in
    r k (List.nth pool (Random.State.int rng (List.length pool)))
  in
  history ~keys ~sessions
    (Array.to_list
       (Array.mapi
          (fun i sh ->
            let session = 1 + Random.State.int rng sessions in
            txn ~session
              (match sh with
              | `Blind ks -> List.map (fun k -> w k (i + 1)) ks
              | `Rmw ks ->
                  List.map (read ~later (i + 1)) ks
                  @ List.map (fun k -> w k (i + 1)) ks
              | `Ro ks ->
                  (* A read-only reader closes no G1c cycle, only hb ones. *)
                  List.map (read ~later:(5 * later) (i + 1)) ks))
          shape))

(* The hb table behind CC is a vector clock per transaction when there
   are at most ⌈n/63⌉ sessions (the initial transaction's counted) and a
   bitset of hb-ancestors otherwise.  The SI engine with the causality
   fault over 2-3 sessions takes the clocks at 300 transactions and the
   bitsets at 40, and reports stale reads either way. *)
let test_hb_tables_match_reference () =
  List.iter
    (fun (sessions, txns) ->
      let stale = ref 0 in
      for seed = 1 to 20 do
        let spec =
          Mt_gen.generate
            { Mt_gen.num_sessions = sessions; num_txns = txns; num_keys = 8;
              dist = Distribution.Uniform; seed }
        in
        let db =
          { Db.level = Isolation.Snapshot;
            fault = Fault.Causality_violation 0.2; num_keys = 8; seed }
        in
        let h =
          (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db
             ~spec ())
            .Scheduler.history
        in
        (match disagreement h with
        | Some msg ->
            Alcotest.failf "%d sessions, %d txns, seed %d: %s" sessions txns
              seed msg
        | None -> ());
        match Weak_checker.check_causal h with
        | Weak_checker.Fail (Weak_checker.Causality _) -> incr stale
        | _ -> ()
      done;
      if !stale = 0 then
        Alcotest.failf "no causality violation at %d sessions, %d txns"
          sessions txns)
    [ (2, 300); (3, 300); (2, 40); (3, 40) ]

let weak_source_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 100_000 in
    let* source = int_range 0 5 in
    return (seed, source))

let print_source (seed, source) = Printf.sprintf "seed=%d source=%d" seed source

(* Sources 0-3: the SI engine with each fault; 4: the causality fault on
   the observers workload; 5: random RMW histories. *)
let weak_history (seed, source) =
  let engine ~fault spec keys =
    let db = { Db.level = Isolation.Snapshot; fault; num_keys = keys; seed } in
    (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ())
      .Scheduler.history
  in
  let keys = 2 + (seed mod 9) and txns = 20 + (seed mod 180) in
  let mt () =
    Mt_gen.generate
      { Mt_gen.num_sessions = 1 + (seed mod 6); num_txns = txns;
        num_keys = keys; dist = Distribution.Uniform; seed }
  in
  match source with
  | 0 -> engine ~fault:Fault.No_fault (mt ()) keys
  | 1 -> engine ~fault:(Fault.Lost_update 0.2) (mt ()) keys
  | 2 -> engine ~fault:(Fault.Causality_violation 0.2) (mt ()) keys
  | 3 -> engine ~fault:(Fault.Aborted_read 0.1) (mt ()) keys
  | 4 ->
      let keys = Stdlib.max keys 8 in
      engine ~fault:(Fault.Causality_violation 0.2)
        (Targeted.observers ~keys ~txns ~seed ())
        keys
  | _ -> random_mt ~seed ~keys ~txns ~sessions:(1 + (seed mod 5))

let prop_matches_reference =
  QCheck2.Test.make ~name:"CSR weak checker == list reference (RC/RA/CC)"
    ~count:300 ~print:print_source weak_source_gen (fun src ->
      match disagreement (weak_history src) with
      | None -> true
      | Some msg -> QCheck2.Test.fail_report msg)

(* --- allocation bound ---

   The whole check — unique values, index, INT screen, dependency CSR and
   the weak-level passes — allocates about 120-135 words per op here, and
   SER alone about 90.  A per-version subtree bitset or an n × n
   reachability matrix is quadratic: the list-based reference allocates
   over 400 words per op at RA and about 680 at CC on this history. *)

(* [declared] is the session count the history claims; 16 are used. *)
let stream_history ?(declared = 16) ~txns () =
  let p =
    { Stream_gen.default with
      num_txns = txns; num_keys = 2000; num_sessions = 16 }
  in
  let acc = ref [] in
  Stream_gen.generate p (fun t -> acc := t :: !acc);
  History.of_array ~num_keys:p.num_keys ~num_sessions:declared
    (Array.of_list (History.init_txn ~num_keys:p.num_keys :: List.rev !acc))

(* Words allocated (minor + major) by one call; the minimum of a few runs,
   since counters can absorb allocation of domains that ended earlier. *)
let words_of f =
  let best = ref infinity in
  for _ = 1 to 2 do
    let minor0, _, major0 = Gc.counters () in
    ignore (Sys.opaque_identity (f ()));
    let minor1, _, major1 = Gc.counters () in
    best := Float.min !best (minor1 -. minor0 +. (major1 -. major0))
  done;
  !best

let alloc_linear ?declared () =
  let h = stream_history ?declared ~txns:20_000 () in
  let ops =
    Array.fold_left
      (fun n (t : Txn.t) -> n + Array.length t.ops)
      0 h.History.txns
  in
  List.iter
    (fun level ->
      let words = words_of (fun () -> Weak_checker.check level h) in
      let per_op = words /. float_of_int ops in
      if per_op > 200.0 then
        Alcotest.failf "%s allocated %.0f words on %d ops (%.1f per op)"
          (Weak_checker.level_name level) words ops per_op)
    [ Weak_checker.Read_atomic; Weak_checker.Causal ]

let test_alloc_linear () = alloc_linear ()

(* A header may declare far more sessions than its transactions use: the
   hb table is sized by the sessions that occur, not by the declared
   count (20k × 1M clocks would not fit in memory). *)
let test_alloc_declared_sessions () = alloc_linear ~declared:1_000_000 ()

let suite =
  [
    ("weak verdicts of the 14-anomaly catalogue", `Quick, test_catalogue);
    ("G1c cycle rejected at RC", `Quick, test_g1c_cycle);
    ("fractured-read payload", `Quick, test_fractured_payload);
    ("causality payload", `Quick, test_causality_payload);
    ("session guarantee fails only CC", `Quick, test_session_guarantee_is_causal_only);
    ("blind writes rejected", `Quick, test_blind_write_rejected);
    ("empty history passes", `Quick, test_empty_history);
    ("long RMW chain passes", `Quick, test_long_chain_passes);
    ("engine lattice SI => CC => RA => RC", `Quick, test_engine_lattice);
    ("RC engine passes RC", `Quick, test_rc_engine_passes_rc);
    ("causality fault breaks CC not RC", `Quick, test_causality_fault_breaks_cc_not_rc);
    ("catalogue matches the list reference", `Quick,
     test_catalogue_matches_reference);
    ("clock and bitset hb tables match the list reference", `Quick,
     test_hb_tables_match_reference);
    QCheck_alcotest.to_alcotest prop_matches_reference;
    ("RA/CC allocation linear on 20k txns", `Quick, test_alloc_linear);
    ("RA/CC allocation linear with 1M declared sessions", `Quick,
     test_alloc_declared_sessions);
  ]
