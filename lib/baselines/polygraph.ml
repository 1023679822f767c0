type edge_kind = Dep | Anti

type choice = (edge_kind * int * int) list

type constr = {
  key : Op.key;
  w1 : int;
  w2 : int;
  if_w1_first : choice;
  if_w2_first : choice;
}

type t = {
  idx : Index.t;
  known : (edge_kind * int * int) list;
  constraints : constr list;
  construct_s : float;
}

type failure = Screen of Int_check.violation | Unresolved of string

let num_constraints t = List.length t.constraints

let build h =
  let t0 = Unix.gettimeofday () in
  let idx = Index.build h in
  match Int_check.check idx with
  | Error v -> Error (Screen v)
  | Ok () -> (
      let known = ref [] in
      List.iter
        (fun (a, b) ->
          known := (Dep, Index.vertex idx a, Index.vertex idx b) :: !known)
        (History.so_pairs h);
      (* WR edges + reader lists per (writer vertex, key). *)
      let readers : (int * Op.key, int list ref) Hashtbl.t =
        Hashtbl.create 1024
      in
      let writers_of_key : (Op.key, int list ref) Hashtbl.t =
        Hashtbl.create 64
      in
      let error = ref None in
      Array.iteri
        (fun sv (s : Txn.t) ->
          Txn.iter_final_writes s (fun _ k _ ->
              match Hashtbl.find_opt writers_of_key k with
              | Some r -> r := sv :: !r
              | None -> Hashtbl.replace writers_of_key k (ref [ sv ]));
          Txn.iter_external_reads s (fun _ k v ->
              match Index.writer_of idx k v with
              | Index.Final w when w <> s.id ->
                  let wv = Index.vertex idx w in
                  known := (Dep, wv, sv) :: !known;
                  let r =
                    match Hashtbl.find_opt readers (wv, k) with
                    | Some r -> r
                    | None ->
                        let r = ref [] in
                        Hashtbl.replace readers (wv, k) r;
                        r
                  in
                  r := sv :: !r
              | Index.Final _ | Index.Intermediate _ | Index.Aborted _
              | Index.Nobody ->
                  if !error = None then
                    error :=
                      Some
                        (Printf.sprintf
                           "read of %d on x%d in T%d has no committed final \
                            writer"
                           v k s.id)))
        idx.committed;
      match !error with
      | Some msg -> Error (Unresolved msg)
      | None ->
          let readers_of wv k =
            match Hashtbl.find_opt readers (wv, k) with
            | Some r -> !r
            | None -> []
          in
          (* One constraint per unordered pair of writers of an object. *)
          let constraints = ref [] in
          Hashtbl.iter
            (fun k ws ->
              let ws = Array.of_list !ws in
              for i = 0 to Array.length ws - 1 do
                for j = i + 1 to Array.length ws - 1 do
                  let w1 = ws.(i) and w2 = ws.(j) in
                  let side first second =
                    (Dep, first, second)
                    :: List.filter_map
                         (fun r ->
                           if r <> second then Some (Anti, r, second) else None)
                         (readers_of first k)
                  in
                  constraints :=
                    {
                      key = k;
                      w1;
                      w2;
                      if_w1_first = side w1 w2;
                      if_w2_first = side w2 w1;
                    }
                    :: !constraints
                done
              done)
            writers_of_key;
          Ok
            {
              idx;
              known = List.rev !known;
              constraints = !constraints;
              construct_s = Unix.gettimeofday () -. t0;
            })
