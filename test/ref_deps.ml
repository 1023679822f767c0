(* Reference implementations the tests compare the library against: the
   list-based dependency-graph builder and SI composition over [Digraph],
   and list views of the frozen CSR.  Deliberately naive — hashtables of
   reader/overwriter lists, one [Digraph.add_edge] per edge — so they
   share no code with the flat builder beyond [Index] and the real-time
   edge generators' definition. *)

(* SO/WR/WW edges of the frozen graph (no RT, no RW), in CSR order. *)
let dep_edges d =
  let c = Deps.freeze d in
  let acc = ref [] in
  for u = Csr.n c - 1 downto 0 do
    for e = c.Csr.offsets.(u + 1) - 1 downto c.Csr.offsets.(u) do
      match c.Csr.labels.(e) with
      | (Deps.SO | Deps.WR _ | Deps.WW _) as lab ->
          acc := (u, lab, c.Csr.targets.(e)) :: !acc
      | Deps.RT | Deps.RW _ | Deps.Rt_chain -> ()
    done
  done;
  !acc

(* RT edges: every ordered pair [T -> S] with [T.commit + skew <
   S.start] (naive), or the helper chain through vertices [m .. 2m - 1]
   sorted by commit time (sweep). *)
let rt_edges ~skew ~rt (idx : Index.t) m add =
  let txn = Index.txn_of_vertex idx in
  match rt with
  | Deps.No_rt -> ()
  | Deps.Rt_naive ->
      for i = 0 to m - 1 do
        for j = 0 to m - 1 do
          if i <> j && (txn i).Txn.commit_ts + skew < (txn j).Txn.start_ts
          then add i j Deps.RT
        done
      done
  | Deps.Rt_sweep ->
      let by_commit = Array.init m Fun.id in
      Array.sort
        (fun a b -> compare (txn a).Txn.commit_ts (txn b).Txn.commit_ts)
        by_commit;
      for r = 0 to m - 1 do
        add by_commit.(r) (m + r) Deps.Rt_chain;
        if r + 1 < m then add (m + r) (m + r + 1) Deps.Rt_chain
      done;
      for sv = 0 to m - 1 do
        (* The latest helper whose commits all precede [sv]'s start. *)
        let best = ref (-1) in
        Array.iteri
          (fun r v ->
            if (txn v).Txn.commit_ts + skew < (txn sv).Txn.start_ts then
              best := r)
          by_commit;
        if !best >= 0 then add (m + !best) sv Deps.Rt_chain
      done

let build_digraph ?(skew = 0) ~rt (idx : Index.t) =
  let m = Index.num_vertices idx in
  let size =
    match rt with Deps.Rt_sweep -> 2 * m | Deps.No_rt | Deps.Rt_naive -> m
  in
  let g = Digraph.create size in
  List.iter
    (fun (a, b) ->
      Digraph.add_edge g (Index.vertex idx a) (Index.vertex idx b) Deps.SO)
    (History.so_pairs idx.history);
  (* WR edges, and WW by the RMW inference; readers and overwriters are
     grouped per (writer vertex, key) for the RW composition. *)
  let readers : (int * Op.key, int list ref) Hashtbl.t =
    Hashtbl.create (4 * m)
  in
  let overwriters : (int * Op.key, int list ref) Hashtbl.t =
    Hashtbl.create m
  in
  let push tbl key v =
    match Hashtbl.find_opt tbl key with
    | Some r -> r := v :: !r
    | None -> Hashtbl.replace tbl key (ref [ v ])
  in
  let error = ref None in
  Array.iteri
    (fun sv (s : Txn.t) ->
      List.iter
        (fun (k, v) ->
          match Index.writer_of idx k v with
          | Index.Final w when w <> s.id ->
              let wv = Index.vertex idx w in
              Digraph.add_edge g wv sv (Deps.WR k);
              push readers (wv, k) sv;
              if Ref_txn.writes_key s k then begin
                Digraph.add_edge g wv sv (Deps.WW k);
                push overwriters (wv, k) sv
              end
          | Index.Final _ | Index.Intermediate _ | Index.Aborted _
          | Index.Nobody ->
              if !error = None then
                error :=
                  Some
                    (Deps.Unresolved_read { txn = s.id; key = k; value = v }))
        (Ref_txn.external_reads s))
    idx.committed;
  match !error with
  | Some e -> Error e
  | None ->
      (* T' -WR(x)-> T and T' -WW(x)-> S give T -RW(x)-> S. *)
      Hashtbl.iter
        (fun (wv, k) rs ->
          match Hashtbl.find_opt overwriters (wv, k) with
          | None -> ()
          | Some ws ->
              List.iter
                (fun t ->
                  List.iter
                    (fun s -> if t <> s then Digraph.add_edge g t s (Deps.RW k))
                    !ws)
                !rs)
        readers;
      rt_edges ~skew ~rt idx m (Digraph.add_edge g);
      Ok g

(* The SI composition ((SO ∪ WR ∪ WW) ; RW?) as a Digraph. *)
type si_label = Dep of Deps.dep | Comp of Deps.dep * int * Op.key

let si_compose (g : Deps.dep Digraph.t) =
  let g' = Digraph.create (Digraph.n g) in
  Digraph.iter_edges g (fun u lab v ->
      match lab with
      | Deps.SO | Deps.WR _ | Deps.WW _ ->
          Digraph.add_edge g' u v (Dep lab);
          Digraph.iter_succ g v (fun w -> function
            | Deps.RW k -> Digraph.add_edge g' u w (Comp (lab, v, k))
            | Deps.RT | Deps.SO | Deps.WR _ | Deps.WW _ | Deps.Rt_chain -> ())
      | Deps.RT | Deps.RW _ | Deps.Rt_chain -> ());
  g'
