(* Tests for the allocation-light inference pipeline: the int-packed
   Flat_index (raw map + writer tiers, including the spill path for
   unpackable pairs), Int_vec, and the equivalence of the direct-to-CSR
   dependency builder with the list-based reference ({!Ref_deps}). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let qtest = QCheck_alcotest.to_alcotest

(* --- Flat_index: raw open-addressing map --- *)

let test_map_basic () =
  let m = Flat_index.create () in
  checki "absent is -1" (-1) (Flat_index.get m 42);
  checkb "absent not mem" false (Flat_index.mem m 42);
  Flat_index.set m 42 7;
  checki "present" 7 (Flat_index.get m 42);
  checkb "present mem" true (Flat_index.mem m 42);
  Flat_index.set m 42 9;
  checki "replaced" 9 (Flat_index.get m 42);
  checki "size counts keys once" 1 (Flat_index.length m)

let test_map_growth () =
  let m = Flat_index.create ~capacity:2 () in
  for k = 0 to 9_999 do
    Flat_index.set m (k * 7) (k + 1)
  done;
  checki "all inserted" 10_000 (Flat_index.length m);
  let ok = ref true in
  for k = 0 to 9_999 do
    if Flat_index.get m (k * 7) <> k + 1 then ok := false
  done;
  checkb "all retrievable after growth" true !ok;
  checki "probe miss after growth" (-1) (Flat_index.get m 3)

let test_map_negative_value_rejected () =
  let m = Flat_index.create () in
  checkb "set -1 rejected" true
    (try
       Flat_index.set m 0 (-1);
       false
     with Invalid_argument _ -> true)

let test_map_adversarial_keys () =
  (* Keys colliding in the low bits stress linear probing. *)
  let m = Flat_index.create ~capacity:4 () in
  for i = 0 to 199 do
    Flat_index.set m (i * 1024) i
  done;
  let ok = ref true in
  for i = 0 to 199 do
    if Flat_index.get m (i * 1024) <> i then ok := false
  done;
  checkb "colliding keys survive" true !ok

(* --- Flat_index.Writers: tiers and the unpackable spill --- *)

let test_writers_tiers () =
  let w = Flat_index.Writers.create ~num_keys:4 ~expected:8 in
  Flat_index.Writers.set_aborted w 1 10 3;
  checkb "aborted tier" true
    (Flat_index.Writers.resolve w 1 10 = Flat_index.Writers.Aborted 3);
  Flat_index.Writers.set_intermediate w 1 10 2;
  checkb "intermediate shadows aborted" true
    (Flat_index.Writers.resolve w 1 10 = Flat_index.Writers.Intermediate 2);
  Flat_index.Writers.set_final w 1 10 1;
  checkb "final shadows intermediate" true
    (Flat_index.Writers.resolve w 1 10 = Flat_index.Writers.Final 1);
  checkb "other value nobody" true
    (Flat_index.Writers.resolve w 1 11 = Flat_index.Writers.Nobody);
  checkb "other key nobody" true
    (Flat_index.Writers.resolve w 2 10 = Flat_index.Writers.Nobody)

let test_writers_spill () =
  (* Values beyond the pack guard (v * num_keys would overflow) and
     negative values take the tuple-keyed spill table; resolution must be
     identical. *)
  let w = Flat_index.Writers.create ~num_keys:1000 ~expected:8 in
  let huge = max_int - 5 in
  Flat_index.Writers.set_final w 3 huge 7;
  Flat_index.Writers.set_intermediate w 4 (-2) 8;
  Flat_index.Writers.set_aborted w 5 huge 9;
  checkb "huge value resolves final" true
    (Flat_index.Writers.resolve w 3 huge = Flat_index.Writers.Final 7);
  checkb "negative value resolves intermediate" true
    (Flat_index.Writers.resolve w 4 (-2) = Flat_index.Writers.Intermediate 8);
  checkb "huge aborted resolves" true
    (Flat_index.Writers.resolve w 5 huge = Flat_index.Writers.Aborted 9);
  checkb "near-miss key nobody" true
    (Flat_index.Writers.resolve w 6 huge = Flat_index.Writers.Nobody);
  (* Packed and spilled entries coexist. *)
  Flat_index.Writers.set_final w 3 42 11;
  checkb "packed entry next to spill" true
    (Flat_index.Writers.resolve w 3 42 = Flat_index.Writers.Final 11)

(* Spilled pairs in every tier survive [keep] and a snapshot round trip,
   and the encoding still reads back a layout whose spill entries come in
   any tier order. *)
let test_writers_spill_roundtrip () =
  let module W = Flat_index.Writers in
  let w = W.create ~num_keys:8 ~expected:4 in
  W.set_final w 1 5 1;
  W.set_final w 2 (-1) 2;
  W.set_intermediate w 3 (-7) 3;
  W.set_aborted w 4 max_int 4;
  W.set_aborted w 9 5 5;
  let probes = [ (1, 5); (2, -1); (3, -7); (4, max_int); (9, 5); (2, 5) ] in
  let resolutions w = List.map (fun (k, v) -> W.resolve w k v) probes in
  let finals w =
    let ids = ref [] in
    W.iter_final w (fun id -> ids := id :: !ids);
    List.sort compare !ids
  in
  let roundtrip w =
    let buf = Buffer.create 64 in
    W.encode buf w;
    W.decode (Binio_core.reader (Buffer.contents buf))
  in
  let expect = resolutions w in
  checkb "decode resolves alike" true (resolutions (roundtrip w) = expect);
  checkb "keep nothing keeps the spill" true
    (resolutions (W.keep w (fun _ -> false))
    = List.map
        (fun (k, v) -> if k = 1 then W.Nobody else W.resolve w k v)
        probes);
  checkb "finals include the spill" true (finals w = [ 1; 2 ]);
  checkb "finals after decode" true (finals (roundtrip w) = [ 1; 2 ]);
  (* num_keys 8, three empty packed maps, then aborted before final. *)
  let buf = Buffer.create 32 in
  Binio_core.add_uvarint buf 8;
  for _ = 1 to 3 do
    Int_map.encode buf (Int_map.create ())
  done;
  Binio_core.add_uvarint buf 2;
  List.iter
    (fun (tier, k, v, id) ->
      Binio_core.add_uvarint buf tier;
      Binio_core.add_varint buf k;
      Binio_core.add_varint buf v;
      Binio_core.add_varint buf id)
    [ (2, 4, -3, 6); (0, 2, -1, 2) ];
  let w' = W.decode (Binio_core.reader (Buffer.contents buf)) in
  checkb "mixed tier order decodes" true
    (W.resolve w' 4 (-3) = W.Aborted 6 && W.resolve w' 2 (-1) = W.Final 2)

(* --- Pair_map --- *)

let test_pair_map () =
  let m = Pair_map.create ~num_keys:10 () in
  checki "absent" (-1) (Pair_map.get m 3 4);
  Pair_map.set m 3 4 7;
  Pair_map.set m 3 (-4) 8;
  Pair_map.set m 12 4 9;
  checki "packed" 7 (Pair_map.get m 3 4);
  checki "negative value spills" 8 (Pair_map.get m 3 (-4));
  checki "key out of range spills" 9 (Pair_map.get m 12 4);
  checki "spilled pairs are distinct" (-1) (Pair_map.get m 4 (-3));
  Pair_map.set m 3 (-4) 10;
  checki "spill replaced" 10 (Pair_map.get m 3 (-4));
  let kept = Pair_map.keep m (fun _ -> false) in
  checki "keep prunes packed only" (-1) (Pair_map.get kept 3 4);
  checki "keep keeps the spill" 10 (Pair_map.get kept 3 (-4));
  checkb "negative value rejected" true
    (try
       Pair_map.set m 1 1 (-1);
       false
     with Invalid_argument _ -> true)

(* --- Int_vec --- *)

let test_int_vec () =
  let v = Int_vec.create 2 in
  for i = 0 to 999 do
    Int_vec.push v (i * 3)
  done;
  checki "length" 1000 (Int_vec.length v);
  checki "get" 297 (Int_vec.get v 99);
  let data = Int_vec.data v in
  checkb "data is the live prefix" true
    (Array.length data >= 1000 && data.(999) = 2997)

(* --- direct vs digraph equivalence --- *)

let config_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* num_keys = int_range 2 30 in
    let* num_txns = int_range 20 250 in
    let* num_sessions = int_range 1 10 in
    let* level =
      oneofl
        [ Isolation.Snapshot; Isolation.Serializable;
          Isolation.Strict_serializable ]
    in
    return (seed, num_keys, num_txns, num_sessions, level))

let print_config (seed, num_keys, num_txns, num_sessions, level) =
  Printf.sprintf "seed=%d keys=%d txns=%d sessions=%d level=%s" seed num_keys
    num_txns num_sessions (Isolation.name level)

let history_of (seed, num_keys, num_txns, num_sessions, level) =
  (* Odd seeds run a faulty engine so the equivalence also covers
     histories with real anomalies (cyclic graphs, unresolved reads). *)
  let fault = if seed mod 2 = 1 then Fault.Lost_update 0.15 else Fault.No_fault in
  let spec =
    Mt_gen.generate
      { Mt_gen.num_sessions; num_txns; num_keys; dist = Distribution.Uniform;
        seed }
  in
  let db = { Db.level; fault; num_keys; seed } in
  (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ())
    .Scheduler.history

(* Sorted edge lists of the dependency graph from the library builder
   and from the list-based reference; the error case is part of the
   compared value. *)
let sorted_edges = function
  | Error e -> Error e
  | Ok edges -> Ok (List.sort compare edges)

let direct_edges rt h =
  sorted_edges
    (Result.map
       (fun d ->
         let c = Deps.freeze d in
         let acc = ref [] in
         for u = 0 to Csr.n c - 1 do
           Csr.iter_succ c u (fun v lab -> acc := (u, lab, v) :: !acc)
         done;
         !acc)
       (Deps.build ~rt (Index.build h)))

let reference_edges rt h =
  sorted_edges
    (Result.map Digraph.edges (Ref_deps.build_digraph ~rt (Index.build h)))

let outcome_kind = function
  | Checker.Pass -> 0
  | Checker.Fail (Checker.Intra _) -> 1
  | Checker.Fail (Checker.Diverged _) -> 2
  | Checker.Fail (Checker.Cyclic _) -> 3
  | Checker.Fail (Checker.Malformed _) -> 4

(* The same kinds from the reference pipeline: INT screen, divergence
   (SI), list-built graph, list SI composition, cycle search. *)
let reference_kind ?(rt_mode = Deps.Rt_sweep) level h =
  match History.unique_values h with
  | Error _ -> 4
  | Ok () -> (
      let idx = Index.build h in
      match Int_check.check idx with
      | Error _ -> 1
      | Ok () -> (
          if level = Checker.SI && Divergence.find idx <> None then 2
          else
            let rt = if level = Checker.SSER then rt_mode else Deps.No_rt in
            match Ref_deps.build_digraph ~rt idx with
            | Error _ -> 4
            | Ok g ->
                let acyclic =
                  if level = Checker.SI then
                    Cycle.is_acyclic (Ref_deps.si_compose g)
                  else Cycle.is_acyclic g
                in
                if acyclic then 0 else 3))

let prop_edge_multisets_equal =
  QCheck2.Test.make ~name:"direct CSR == digraph edge multiset" ~count:60
    ~print:print_config config_gen (fun cfg ->
      let h = history_of cfg in
      List.for_all
        (fun rt -> direct_edges rt h = reference_edges rt h)
        [ Deps.No_rt; Deps.Rt_naive; Deps.Rt_sweep ])

let prop_check_outcomes_equal =
  QCheck2.Test.make ~name:"check impl-independent (all levels, all rt)"
    ~count:60 ~print:print_config config_gen (fun cfg ->
      let h = history_of cfg in
      List.for_all
        (fun (level, rt_mode) ->
          outcome_kind (Checker.check ?rt_mode level h)
          = reference_kind ?rt_mode level h)
        [
          (Checker.SER, None);
          (Checker.SI, None);
          (Checker.SSER, Some Deps.Rt_naive);
          (Checker.SSER, Some Deps.Rt_sweep);
        ])

(* --- allocation bound: the point of the direct path --- *)

let test_direct_build_alloc_halved () =
  let spec =
    Mt_gen.generate
      { Mt_gen.default with num_txns = 2000; num_keys = 300; seed = 77 }
  in
  let db =
    { Db.level = Isolation.Serializable; fault = Fault.No_fault;
      num_keys = 300; seed = 77 }
  in
  let h = (Scheduler.run ~db ~spec ()).Scheduler.history in
  let direct () =
    match Deps.build ~rt:Deps.No_rt (Index.build h) with
    | Ok d -> ignore (Sys.opaque_identity (Deps.freeze d))
    | Error _ -> Alcotest.fail "unexpected unresolved read"
  in
  let reference () =
    match Ref_deps.build_digraph ~rt:Deps.No_rt (Index.build h) with
    | Ok g -> ignore (Sys.opaque_identity (Csr.of_digraph g))
    | Error _ -> Alcotest.fail "unexpected unresolved read"
  in
  (* Minimum of a few runs: Gc.allocated_bytes can absorb counters from
     domains terminated by earlier suites, inflating a single delta. *)
  let measure f =
    f () (* warm-up *);
    let best = ref infinity in
    for _ = 1 to 3 do
      let a0 = Gc.allocated_bytes () in
      f ();
      let d = Gc.allocated_bytes () -. a0 in
      if d < !best then best := d
    done;
    !best
  in
  let direct = measure direct in
  let digraph = measure reference in
  if direct > digraph /. 2.0 then
    Alcotest.failf
      "direct build allocated %.0f bytes, digraph %.0f — expected <= half"
      direct digraph

(* Tied commit keys: the sweep keeps the sort's permutation of the ties
   (its identity shortcut applies only to strictly increasing keys), so
   the helper chain matches the reference edge for edge. *)
let test_sweep_tied_commits () =
  let h =
    History.make ~num_keys:2 ~num_sessions:4
      (List.init 40 (fun i ->
           let id = i + 1 in
           Txn.make ~id ~session:(1 + (i mod 4)) ~start_ts:(id / 3)
             ~commit_ts:(id / 3)
             [ Op.Read (i mod 2, 0) ]))
  in
  checkb "sweep edges match the reference" true
    (direct_edges Deps.Rt_sweep h = reference_edges Deps.Rt_sweep h)

let suite =
  [
    ("flat map: basic", `Quick, test_map_basic);
    ("flat map: growth", `Quick, test_map_growth);
    ("flat map: negative value rejected", `Quick,
     test_map_negative_value_rejected);
    ("flat map: adversarial keys", `Quick, test_map_adversarial_keys);
    ("writers: tier shadowing", `Quick, test_writers_tiers);
    ("writers: unpackable spill", `Quick, test_writers_spill);
    ("writers: spill survives keep and snapshots", `Quick,
     test_writers_spill_roundtrip);
    ("pair map: packed and spilled pairs", `Quick, test_pair_map);
    ("int_vec: push/get/data", `Quick, test_int_vec);
    qtest prop_edge_multisets_equal;
    ("deps: sweep keeps the order of tied commits", `Quick,
     test_sweep_tied_commits);
    qtest prop_check_outcomes_equal;
    ("deps: direct build allocates <= half of digraph", `Quick,
     test_direct_build_alloc_halved);
  ]
