type id = int

type status = Committed | Aborted

type t = {
  id : id;
  session : int;
  ops : Op.t array;
  status : status;
  start_ts : int;
  commit_ts : int;
}

let make ~id ~session ?(status = Committed) ?start_ts ?commit_ts ops =
  let start_ts = Option.value start_ts ~default:id in
  let commit_ts = Option.value commit_ts ~default:start_ts in
  { id; session; ops = Array.of_list ops; status; start_ts; commit_ts }

let is_committed t = t.status = Committed

(* The paper's [|-] judgements, decided on the op array itself: no
   per-call hashtables or lists, so the stream feed and the batch
   builders allocate nothing per transaction.  Mini-transactions (<= 4
   ops) rescan the array; larger ones — in practice only the initial
   transaction, one write per key, on which a rescan per op would be
   quadratic — get one keyed pass instead. *)

let small = 16

(* Index of the last op in [ops.(lo .. hi-1)] on key [k], counting only
   writes if [writes], or -1. *)
let rec last_on ops k ~writes lo hi =
  if hi <= lo then -1
  else
    match ops.(hi - 1) with
    | Op.Write (k', _) when k' = k -> hi - 1
    | Op.Read (k', _) when k' = k && not writes -> hi - 1
    | Op.Write _ | Op.Read _ -> last_on ops k ~writes lo (hi - 1)

(* Per-key first and last write positions of a large op array. *)
type keyed = {
  first : (Op.key, int) Hashtbl.t;
  last : (Op.key, int) Hashtbl.t;
}

let keyed ops =
  let n = Array.length ops in
  if n <= small then None
  else begin
    let first = Hashtbl.create n and last = Hashtbl.create n in
    Array.iteri
      (fun i op ->
        match op with
        | Op.Write (k, _) ->
            if not (Hashtbl.mem first k) then Hashtbl.add first k i;
            Hashtbl.replace last k i
        | Op.Read _ -> ())
      ops;
    Some { first; last }
  end

(* For a write to [k] at [i]: the index of [k]'s final write, and
   whether [i] is [k]'s first write. *)
let final_index ops keyed k i =
  match keyed with
  | None ->
      let j = last_on ops k ~writes:true (i + 1) (Array.length ops) in
      if j < 0 then i else j
  | Some kt -> Hashtbl.find kt.last k

let first_write ops keyed k i =
  match keyed with
  | None -> last_on ops k ~writes:true 0 i < 0
  | Some kt -> Hashtbl.find kt.first k = i

(* A read is external iff no earlier op touches its key: an earlier read
   is the external one, an earlier write makes every later read
   internal. *)
let iter_external_reads t f =
  let ops = t.ops in
  for i = 0 to Array.length ops - 1 do
    match ops.(i) with
    | Op.Read (k, v) -> if last_on ops k ~writes:false 0 i < 0 then f i k v
    | Op.Write _ -> ()
  done

let iter_final_writes t f =
  let ops = t.ops in
  let kt = keyed ops in
  for i = 0 to Array.length ops - 1 do
    match ops.(i) with
    | Op.Write (k, _) when first_write ops kt k i ->
        let j = final_index ops kt k i in
        f j k (Op.value ops.(j))
    | Op.Write _ | Op.Read _ -> ()
  done

(* By value, not by position: a write whose value equals its key's final
   value is the final version, not an intermediate one. *)
let iter_intermediate_writes t f =
  let ops = t.ops in
  let kt = keyed ops in
  for i = 0 to Array.length ops - 1 do
    match ops.(i) with
    | Op.Write (k, v) when Op.value ops.(final_index ops kt k i) <> v -> f i k v
    | Op.Write _ | Op.Read _ -> ()
  done

let mark_finals t final off =
  let ops = t.ops in
  let kt = keyed ops in
  for i = 0 to Array.length ops - 1 do
    Bytes.set final (off + i)
      (match ops.(i) with
      | Op.Write (k, _) when final_index ops kt k i = i -> '\001'
      | Op.Write _ | Op.Read _ -> '\000')
  done

let final_write t k = last_on t.ops k ~writes:true 0 (Array.length t.ops)
let writes_key t k = final_write t k >= 0

let pp ppf t =
  let status = match t.status with Committed -> "C" | Aborted -> "A" in
  Format.fprintf ppf "T%d[s%d,%s,%d..%d: %a]" t.id t.session status t.start_ts
    t.commit_ts
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") Op.pp)
    (Array.to_list t.ops)

let pp_brief ppf t = Format.fprintf ppf "T%d" t.id
