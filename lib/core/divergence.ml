type instance = {
  key : Op.key;
  writer : Txn.id;
  reader1 : Txn.id * Op.value;
  reader2 : Txn.id * Op.value;
}

let pp_instance ppf { key; writer; reader1 = r1, v1; reader2 = r2, v2 } =
  Format.fprintf ppf
    "DIVERGENCE on x%d: T%d and T%d both read from T%d and wrote %d / %d" key
    r1 r2 writer v1 v2

(* Key stripes are independent (a diverging pair lives entirely on one
   key), so a pool slice scans its range of stripes in one pass. *)
let num_stripes = 8

(* A committed transaction S "diverges" on x if it has an external read
   R(x, v) and a final write W(x, _): it extends the version chain of the
   writer of v.  Two extenders of the same (x, v) form the pattern.  One
   pass over the committed transactions, screening the keys of stripes
   [lo, hi): the first extender of each (x, v) sits in a packed-pair
   table, and the hits come back as (committed position, op index,
   instance) in scan order — only the first unless [all]. *)
let scan (idx : Index.t) ~lo ~hi ~all =
  let first_extender =
    Flat_index.Pairs.create ~num_keys:idx.history.History.num_keys ()
  in
  let found = ref [] in
  let sv = ref 0 in
  let exception Hit in
  let on_read i k v =
    (* keys of a history are >= 0: this is k mod 8 *)
    let stripe = k land (num_stripes - 1) in
    if stripe >= lo && stripe < hi then begin
      let s = idx.committed.(!sv) in
      let w = Txn.final_write s k in
      if w >= 0 then begin
        let v_new = Op.value s.ops.(w) in
        let other = Flat_index.Pairs.first first_extender k v in
        if other < 0 then Flat_index.Pairs.set first_extender k v s.id v_new
        else begin
          let v_other = Flat_index.Pairs.second first_extender k v in
          let writer =
            match Index.writer_of idx k v with
            | Index.Final w | Index.Intermediate w | Index.Aborted w -> w
            | Index.Nobody -> -1
          in
          let inst =
            { key = k; writer; reader1 = (other, v_other);
              reader2 = (s.id, v_new) }
          in
          found := (!sv, i, inst) :: !found;
          if not all then raise Hit
        end
      end
    end
  in
  (try
     for c = 0 to Array.length idx.committed - 1 do
       sv := c;
       Txn.iter_external_reads idx.committed.(c) on_read
     done
   with Hit -> ());
  List.rev !found

(* Each slice's first hit; the minimum (committed position, op index)
   is the sequential scan's first instance. *)
let find ?pool (idx : Index.t) =
  let results =
    Pool.map_slices pool ~n:num_stripes (fun lo hi ->
        match scan idx ~lo ~hi ~all:false with [] -> None | hit :: _ -> Some hit)
  in
  let best =
    Array.fold_left
      (fun acc hit ->
        match (acc, hit) with
        | None, hit -> hit
        | Some _, None -> acc
        | Some (ai, ar, _), Some (bi, br, _) ->
            if bi < ai || (bi = ai && br < ar) then hit else acc)
      None results
  in
  Option.map (fun (_, _, inst) -> inst) best

let find_all idx =
  List.map (fun (_, _, inst) -> inst) (scan idx ~lo:0 ~hi:num_stripes ~all:true)
