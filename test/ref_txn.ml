(* Reference list views of a transaction's op facts: the paper's
   [T |- R(x,v)] and [T |- W(x,v)] judgements as per-call hashtables
   and lists.  Deliberately naive, sharing no code with [Txn]'s
   allocation-free op-array iterators, which the tests compare against
   them. *)

let external_reads (t : Txn.t) =
  let written = Hashtbl.create 4 in
  let seen = Hashtbl.create 4 in
  let acc = ref [] in
  Array.iter
    (fun op ->
      match op with
      | Op.Write (k, _) -> Hashtbl.replace written k ()
      | Op.Read (k, v) ->
          if (not (Hashtbl.mem written k)) && not (Hashtbl.mem seen k) then begin
            Hashtbl.replace seen k ();
            acc := (k, v) :: !acc
          end)
    t.ops;
  List.rev !acc

let final_writes (t : Txn.t) =
  let last = Hashtbl.create 4 in
  let order = ref [] in
  Array.iter
    (fun op ->
      match op with
      | Op.Write (k, v) ->
          if not (Hashtbl.mem last k) then order := k :: !order;
          Hashtbl.replace last k v
      | Op.Read _ -> ())
    t.ops;
  List.rev_map (fun k -> (k, Hashtbl.find last k)) !order

let intermediate_writes (t : Txn.t) =
  let final = Hashtbl.create 4 in
  List.iter (fun (k, v) -> Hashtbl.replace final k v) (final_writes t);
  let acc = ref [] in
  Array.iter
    (fun op ->
      match op with
      | Op.Write (k, v) when Hashtbl.find final k <> v -> acc := (k, v) :: !acc
      | Op.Write _ | Op.Read _ -> ())
    t.ops;
  List.rev !acc

let read_of t k = List.assoc_opt k (external_reads t)
let write_of t k = List.assoc_opt k (final_writes t)
let reads_key t k = read_of t k <> None
let writes_key t k = write_of t k <> None
