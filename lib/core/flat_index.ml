(* The raw open-addressing int map and the (key, value) packing live in
   [Int_map] (lib/common), and the spill-backed pair map in [Pair_map],
   so the history layer's unique-values screen shares them; the writer
   tiers, cons-chain lists and pair tables below layer the checker's
   lookups on top. *)
include Int_map

type map = t

let encode_map = encode
let decode_map = decode
let iter_map = iter
let words_map = words
let set_map = set
let create_map = create

(* --- writer lookup tables over int-packed (key, value) pairs --- *)

module Writers = struct
  type who =
    | Final of Txn.id
    | Intermediate of Txn.id
    | Aborted of Txn.id
    | Nobody

  (* One pair map per tier; a pair's packing (or its spill) is
     {!Pair_map}'s decision. *)
  type t = { final : Pair_map.t; intermediate : Pair_map.t; aborted : Pair_map.t }

  let create ~num_keys ~expected =
    {
      final = Pair_map.create ~capacity:(2 * expected) ~num_keys ();
      intermediate = Pair_map.create ~num_keys ();
      aborted = Pair_map.create ~num_keys ();
    }

  let set_final t k v id = Pair_map.set t.final k v id
  let set_intermediate t k v id = Pair_map.set t.intermediate k v id
  let set_aborted t k v id = Pair_map.set t.aborted k v id

  let resolve t k v =
    let id = Pair_map.get t.final k v in
    if id >= 0 then Final id
    else
      let id = Pair_map.get t.intermediate k v in
      if id >= 0 then Intermediate id
      else
        let id = Pair_map.get t.aborted k v in
        if id >= 0 then Aborted id else Nobody

  let keep t pred =
    {
      final = Pair_map.keep t.final pred;
      intermediate = Pair_map.keep t.intermediate pred;
      aborted = Pair_map.keep t.aborted pred;
    }

  let iter_final t f = Pair_map.iter t.final f

  let words t =
    2 + Pair_map.words t.final + Pair_map.words t.intermediate
    + Pair_map.words t.aborted

  (* The three packed maps, then the spilled pairs as (tier, key, value,
     id) with tier 0/1/2 = final/intermediate/aborted. *)
  let tiers t = [ t.final; t.intermediate; t.aborted ]

  let encode buf t =
    Binio_core.add_uvarint buf t.final.num_keys;
    List.iter (fun (m : Pair_map.t) -> encode_map buf m.packed) (tiers t);
    Binio_core.add_uvarint buf
      (List.fold_left
         (fun n (m : Pair_map.t) -> n + Hashtbl.length m.spill)
         0 (tiers t));
    List.iteri
      (fun tier (m : Pair_map.t) ->
        Hashtbl.iter
          (fun (k, v) id ->
            Binio_core.add_uvarint buf tier;
            Binio_core.add_varint buf k;
            Binio_core.add_varint buf v;
            Binio_core.add_varint buf id)
          m.spill)
      (tiers t)

  let decode r =
    let num_keys = Binio_core.read_uvarint r in
    let tier () =
      { Pair_map.num_keys; packed = decode_map r; spill = Hashtbl.create 8 }
    in
    let final = tier () in
    let intermediate = tier () in
    let aborted = tier () in
    let n = Binio_core.read_uvarint r in
    if n < 0 || n > Binio_core.remaining r then
      Binio_core.fail "writers spill count %d overruns input" n;
    for _ = 1 to n do
      let tier = Binio_core.read_uvarint r in
      if tier < 0 || tier > 2 then
        Binio_core.fail "writers spill tier %d out of range" tier;
      let k = Binio_core.read_varint r in
      let v = Binio_core.read_varint r in
      let id = Binio_core.read_varint r in
      let m =
        match tier with 0 -> final | 1 -> intermediate | _ -> aborted
      in
      Hashtbl.replace m.spill (k, v) id
    done;
    { final; intermediate; aborted }
end

(* --- (key, value) -> int list, as a flat cons pool --- *)

module Multi = struct
  (* The seed's [(key, value) -> Txn.id list ref Hashtbl] boxed a tuple
     per probe and a list cell plus a ref per push.  Here the lists live
     in two parallel int vectors (value, next-index) threaded like cons
     cells, with a packed-pair map holding each list's head index: a push
     is two int appends and a map store, and iteration follows int
     indices — newest first, exactly the seed's cons order. *)
  type t = {
    num_keys : int;
    heads : map;  (* packed pair -> head slot in the pool *)
    pvals : Int_vec.t;
    pnext : Int_vec.t;  (* -1 terminates a chain *)
    spill : (Op.key * Op.value, int list ref) Hashtbl.t;
  }

  let create ~num_keys () =
    {
      num_keys;
      heads = create ();
      pvals = Int_vec.create 64;
      pnext = Int_vec.create 64;
      spill = Hashtbl.create 8;
    }

  let push t k v x =
    let p = pack_pair ~num_keys:t.num_keys k v in
    if p >= 0 then begin
      let head = get t.heads p in
      let slot = Int_vec.length t.pvals in
      Int_vec.push t.pvals x;
      Int_vec.push t.pnext head;
      set t.heads p slot
    end
    else
      match Hashtbl.find_opt t.spill (k, v) with
      | Some r -> r := x :: !r
      | None -> Hashtbl.replace t.spill (k, v) (ref [ x ])

  let iter t k v f =
    let p = pack_pair ~num_keys:t.num_keys k v in
    if p >= 0 then begin
      let slot = ref (get t.heads p) in
      while !slot >= 0 do
        f (Int_vec.get t.pvals !slot);
        slot := Int_vec.get t.pnext !slot
      done
    end
    else
      match Hashtbl.find_opt t.spill (k, v) with
      | Some r -> List.iter f !r
      | None -> ()

  (* Rebuild keeping only the chains whose packed pair [pred] accepts.
     Each surviving chain is re-pushed oldest-first into a fresh pool so
     iteration order (newest first) is preserved while dead chains' cons
     cells are dropped. *)
  let keep t pred =
    let t' = create ~num_keys:t.num_keys () in
    let scratch = Int_vec.create 16 in
    iter_map t.heads (fun p head ->
        if pred p then begin
          Int_vec.clear scratch;
          let slot = ref head in
          while !slot >= 0 do
            Int_vec.push scratch (Int_vec.get t.pvals !slot);
            slot := Int_vec.get t.pnext !slot
          done;
          let k = p mod t.num_keys and v = p / t.num_keys in
          for i = Int_vec.length scratch - 1 downto 0 do
            push t' k v (Int_vec.get scratch i)
          done
        end);
    Hashtbl.iter (fun kv l -> Hashtbl.replace t'.spill kv (ref !l)) t.spill;
    t'

  let iter_members t f =
    for i = 0 to Int_vec.length t.pvals - 1 do
      f (Int_vec.get t.pvals i)
    done;
    Hashtbl.iter (fun _ l -> List.iter f !l) t.spill

  let words t =
    2 + words_map t.heads
    + Array.length (Int_vec.data t.pvals)
    + Array.length (Int_vec.data t.pnext)
    + (8 * Hashtbl.length t.spill)

  (* The cons pool is written verbatim (iteration is newest-first chain
     following, which the slot indices encode); spill lists keep their
     order. *)
  let encode buf t =
    Binio_core.add_uvarint buf t.num_keys;
    encode_map buf t.heads;
    Int_vec.encode buf t.pvals;
    Int_vec.encode buf t.pnext;
    Binio_core.add_uvarint buf (Hashtbl.length t.spill);
    Hashtbl.iter
      (fun (k, v) l ->
        Binio_core.add_varint buf k;
        Binio_core.add_varint buf v;
        Binio_core.add_uvarint buf (List.length !l);
        List.iter (Binio_core.add_varint buf) !l)
      t.spill

  let decode r =
    let num_keys = Binio_core.read_uvarint r in
    let heads = decode_map r in
    let pvals = Int_vec.decode r in
    let pnext = Int_vec.decode r in
    let n = Binio_core.read_uvarint r in
    if n < 0 || n > Binio_core.remaining r then
      Binio_core.fail "multi spill count %d overruns input" n;
    let spill = Hashtbl.create (Stdlib.max 8 n) in
    for _ = 1 to n do
      let k = Binio_core.read_varint r in
      let v = Binio_core.read_varint r in
      let len = Binio_core.read_uvarint r in
      if len < 0 || len > Binio_core.remaining r then
        Binio_core.fail "multi spill list of %d overruns input" len;
      let l = List.init len (fun _ -> Binio_core.read_varint r) in
      Hashtbl.replace spill (k, v) (ref l)
    done;
    { num_keys; heads; pvals; pnext; spill }
end

(* --- (key, value) -> (int, int), for the SI divergence screen --- *)

module Pairs = struct
  (* One packed-pair map into a flat pool of 2-int slots.  The first
     component must be >= 0 (it doubles as the absence sentinel of
     {!first}); the second is unrestricted — it lives in the pool, not in
     the map's value array. *)
  type t = {
    num_keys : int;
    idx : map;  (* packed pair -> slot; slot s occupies pool[2s, 2s+1] *)
    pool : Int_vec.t;
    spill : (Op.key * Op.value, int * int) Hashtbl.t;
  }

  let create ~num_keys () =
    { num_keys; idx = create (); pool = Int_vec.create 64;
      spill = Hashtbl.create 8 }

  let set t k v a b =
    if a < 0 then invalid_arg "Flat_index.Pairs.set: first component >= 0";
    let p = pack_pair ~num_keys:t.num_keys k v in
    if p >= 0 then begin
      let s = get t.idx p in
      if s >= 0 then begin
        Int_vec.set t.pool (2 * s) a;
        Int_vec.set t.pool ((2 * s) + 1) b
      end
      else begin
        let s = Int_vec.length t.pool / 2 in
        Int_vec.push t.pool a;
        Int_vec.push t.pool b;
        set t.idx p s
      end
    end
    else Hashtbl.replace t.spill (k, v) (a, b)

  (* [-1] when the pair is absent. *)
  let first t k v =
    let p = pack_pair ~num_keys:t.num_keys k v in
    if p >= 0 then begin
      let s = get t.idx p in
      if s >= 0 then Int_vec.get t.pool (2 * s) else -1
    end
    else match Hashtbl.find_opt t.spill (k, v) with Some (a, _) -> a | None -> -1

  (* Only meaningful when [first] returned >= 0. *)
  let second t k v =
    let p = pack_pair ~num_keys:t.num_keys k v in
    if p >= 0 then begin
      let s = get t.idx p in
      if s >= 0 then Int_vec.get t.pool ((2 * s) + 1) else 0
    end
    else
      match Hashtbl.find_opt t.spill (k, v) with Some (_, b) -> b | None -> 0

  let keep t pred =
    let t' =
      { num_keys = t.num_keys; idx = create_map ~capacity:4 ();
        pool = Int_vec.create 16; spill = Hashtbl.copy t.spill }
    in
    iter_map t.idx (fun p s ->
        if pred p then begin
          let s' = Int_vec.length t'.pool / 2 in
          Int_vec.push t'.pool (Int_vec.get t.pool (2 * s));
          Int_vec.push t'.pool (Int_vec.get t.pool ((2 * s) + 1));
          set_map t'.idx p s'
        end);
    t'

  let words t =
    2 + words_map t.idx + Array.length (Int_vec.data t.pool)
    + (8 * Hashtbl.length t.spill)

  let encode buf t =
    Binio_core.add_uvarint buf t.num_keys;
    encode_map buf t.idx;
    Int_vec.encode buf t.pool;
    Binio_core.add_uvarint buf (Hashtbl.length t.spill);
    Hashtbl.iter
      (fun (k, v) (a, b) ->
        Binio_core.add_varint buf k;
        Binio_core.add_varint buf v;
        Binio_core.add_varint buf a;
        Binio_core.add_varint buf b)
      t.spill

  let decode r =
    let num_keys = Binio_core.read_uvarint r in
    let idx = decode_map r in
    let pool = Int_vec.decode r in
    let n = Binio_core.read_uvarint r in
    if n < 0 || n > Binio_core.remaining r then
      Binio_core.fail "pairs spill count %d overruns input" n;
    let spill = Hashtbl.create (Stdlib.max 8 n) in
    for _ = 1 to n do
      let k = Binio_core.read_varint r in
      let v = Binio_core.read_varint r in
      let a = Binio_core.read_varint r in
      let b = Binio_core.read_varint r in
      Hashtbl.replace spill (k, v) (a, b)
    done;
    { num_keys; idx; pool; spill }
end
