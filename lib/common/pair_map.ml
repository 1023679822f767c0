type t = {
  num_keys : int;
  packed : Int_map.t;
  spill : (int * int, int) Hashtbl.t;
}

let create ?capacity ~num_keys () =
  { num_keys; packed = Int_map.create ?capacity (); spill = Hashtbl.create 8 }

let get t k v =
  let p = Int_map.pack_pair ~num_keys:t.num_keys k v in
  if p >= 0 then Int_map.get t.packed p
  else match Hashtbl.find_opt t.spill (k, v) with Some x -> x | None -> -1

let set t k v x =
  if x < 0 then invalid_arg "Pair_map.set: values must be >= 0";
  let p = Int_map.pack_pair ~num_keys:t.num_keys k v in
  if p >= 0 then Int_map.set t.packed p x else Hashtbl.replace t.spill (k, v) x

let iter t f =
  Int_map.iter t.packed (fun _ x -> f x);
  Hashtbl.iter (fun _ x -> f x) t.spill

let keep t pred =
  { t with packed = Int_map.filtered t.packed pred; spill = Hashtbl.copy t.spill }

let words t = Int_map.words t.packed + (8 * Hashtbl.length t.spill)
