type t = { txns : Txn.t array; num_sessions : int; num_keys : int }

let init_id = 0

let init_txn ~num_keys =
  let ops = List.init num_keys (fun k -> Op.Write (k, 0)) in
  Txn.make ~id:init_id ~session:0 ~start_ts:min_int ~commit_ts:min_int ops

(* [all] must already start with the initial transaction at position 0;
   [of_array] validates positions 1.. like [make] always did.  Slices
   validate independently (the checks are per-transaction), so the
   parallel binary loader hands its decoded array straight here. *)
let of_array ?pool ~num_keys ~num_sessions all =
  ignore
    (Pool.map_slices pool ~n:(Array.length all) (fun lo hi ->
         for i = lo to hi - 1 do
           let t : Txn.t = all.(i) in
           if t.id <> i then
             invalid_arg
               (Printf.sprintf "History.make: txn at position %d has id %d" i
                  t.id);
           if i > 0 && (t.session < 1 || t.session > num_sessions) then
             invalid_arg
               (Printf.sprintf "History.make: T%d has session %d out of [1,%d]"
                  t.id t.session num_sessions);
           for j = 0 to Array.length t.ops - 1 do
             let k = Op.key t.ops.(j) in
             if k < 0 || k >= num_keys then
               invalid_arg
                 (Printf.sprintf
                    "History.make: T%d accesses key %d out of [0,%d)" t.id k
                    num_keys)
           done
         done));
  { txns = all; num_sessions; num_keys }

let make ~num_keys ~num_sessions txns =
  of_array ~num_keys ~num_sessions
    (Array.of_list (init_txn ~num_keys :: txns))

let txn h id = h.txns.(id)
let num_txns h = Array.length h.txns

let committed h =
  Array.to_list h.txns |> List.filter Txn.is_committed

let committed_count h =
  Array.fold_left (fun n t -> if Txn.is_committed t then n + 1 else n) 0 h.txns

let session_chain h s =
  Array.to_list h.txns
  |> List.filter (fun (t : Txn.t) -> t.session = s && Txn.is_committed t)
  |> List.map (fun (t : Txn.t) -> t.id)

let so_pairs h =
  let acc = ref [] in
  for s = 1 to h.num_sessions do
    match session_chain h s with
    | [] -> ()
    | first :: _ as chain ->
        acc := (init_id, first) :: !acc;
        let rec link = function
          | a :: (b :: _ as rest) ->
              acc := (a, b) :: !acc;
              link rest
          | [ _ ] | [] -> ()
        in
        link chain
  done;
  List.rev !acc

let iter_so_pairs h f =
  (* Single pass in id order (id order refines session order): remember
     the last committed txn per session, emit (prev, next) as we go.
     Same pair multiset as [so_pairs], no list materialization. *)
  let last = Array.make (h.num_sessions + 1) (-1) in
  Array.iter
    (fun (t : Txn.t) ->
      if Txn.is_committed t && t.id <> init_id then begin
        let s = t.session in
        f (if last.(s) < 0 then init_id else last.(s)) t.id;
        last.(s) <- t.id
      end)
    h.txns

let rt_before h t1 t2 =
  let a = h.txns.(t1) and b = h.txns.(t2) in
  a.commit_ts < b.start_ts

(* Key stripes screen independently (a duplicate pair involves one key),
   so a pool slice screens its range of stripes in one pass over the
   history; each slice reports its first duplicate's (txn position, op
   index) and the global minimum reproduces the sequential
   first-in-scan-order error.  A [Pair_map] from (key, value) to the
   writer's id holds the slice's writes; a counting pass sizes it, since
   growing it by doubling costs time and a transient copy. *)
let uv_stripes = 8

let unique_values ?pool h =
  let num_keys = h.num_keys and n = Array.length h.txns in
  let results =
    Pool.map_slices pool ~n:uv_stripes (fun lo hi ->
        (* [f ti oi id k v] on every write to a key of the slice *)
        let iter_writes f =
          for ti = 0 to n - 1 do
            let t = h.txns.(ti) in
            let ops = t.Txn.ops in
            for oi = 0 to Array.length ops - 1 do
              match ops.(oi) with
              | Op.Write (k, v) ->
                  (* keys of a history are >= 0: this is k mod 8 *)
                  let stripe = k land (uv_stripes - 1) in
                  if stripe >= lo && stripe < hi then f ti oi t.id k v
              | Op.Read _ -> ()
            done
          done
        in
        let writes = ref 0 in
        iter_writes (fun _ _ _ _ _ -> incr writes);
        let seen = Pair_map.create ~capacity:(2 * !writes) ~num_keys () in
        let exception Dup of int * int * string in
        try
          iter_writes (fun ti oi id k v ->
              let other = Pair_map.get seen k v in
              if other < 0 then Pair_map.set seen k v id
              else if other <> id then
                raise
                  (Dup
                     ( ti,
                       oi,
                       Printf.sprintf
                         "writes of value %d to key %d by both T%d and T%d" v
                         k other id )));
          None
        with Dup (ti, oi, msg) -> Some (ti, oi, msg))
  in
  let best =
    Array.fold_left
      (fun acc hit ->
        match (acc, hit) with
        | None, hit -> hit
        | Some _, None -> acc
        | Some (at, ao, _), Some (bt, bo, _) ->
            if bt < at || (bt = at && bo < ao) then hit else acc)
      None results
  in
  match best with None -> Ok () | Some (_, _, msg) -> Error msg

let all_mini h =
  let exception Bad of int in
  try
    Array.iter
      (fun (t : Txn.t) ->
        if t.id <> init_id && not (Mini.is_mini t) then raise (Bad t.id))
      h.txns;
    Ok ()
  with Bad id -> Error (Printf.sprintf "T%d is not a mini-transaction" id)

let validate h =
  match unique_values h with Error _ as e -> e | Ok () -> all_mini h

let stats h =
  let ops =
    Array.fold_left (fun n (t : Txn.t) -> n + Array.length t.ops) 0 h.txns
  in
  Printf.sprintf "%d txns (%d committed) / %d sessions / %d keys / %d ops"
    (num_txns h - 1)
    (committed_count h - 1)
    h.num_sessions h.num_keys ops

let pp ppf h =
  Format.fprintf ppf "@[<v>history: %s" (stats h);
  Array.iter
    (fun t ->
      if (t : Txn.t).id <> init_id then Format.fprintf ppf "@,%a" Txn.pp t)
    h.txns;
  Format.fprintf ppf "@]"
