(* One flat int array per domain, record [k] at [(k land mask) * width],
   so a writer stores unboxed ints and allocates nothing. *)

type ring = {
  r_dom : int;
  r_width : int;
  r_mask : int;
  r_idx : int Atomic.t;  (* total reservations since last clear *)
  mutable r_cur : int;  (* drain cursor, guarded by the family mutex *)
  r_words : int array;
}

type t = {
  cap : int;
  mu : Mutex.t;
  rings : ring list ref;
  key : ring Domain.DLS.key;
}

let create ~width ~cap_bits =
  let cap = 1 lsl cap_bits in
  let mu = Mutex.create () in
  let rings = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let r =
          {
            r_dom = (Domain.self () :> int);
            r_width = width;
            r_mask = cap - 1;
            r_idx = Atomic.make 0;
            r_cur = 0;
            r_words = Array.make (cap * width) 0;
          }
        in
        Mutex.protect mu (fun () -> rings := r :: !rings);
        r)
  in
  { cap; mu; rings; key }

let local t = Domain.DLS.get t.key
let words r = r.r_words
let dom r = r.r_dom

let reserve r =
  (Atomic.fetch_and_add r.r_idx 1 land r.r_mask) * r.r_width

(* ------------------------------------------------------------------ *)

let all t = Mutex.protect t.mu (fun () -> !(t.rings))

(* [f] over records [from .. total - 1] of [r] clipped to the
   survivors, prepended to [acc] newest first; returns [total]. *)
let scan t r ~from f acc =
  let total = Atomic.get r.r_idx in
  for k = Stdlib.max from (total - t.cap) to total - 1 do
    acc := f r ((k land r.r_mask) * r.r_width) :: !acc
  done;
  total

let records t f =
  let acc = ref [] in
  List.iter (fun r -> ignore (scan t r ~from:0 f acc)) (all t);
  List.rev !acc

let drain t f =
  let acc = ref [] in
  Mutex.protect t.mu (fun () ->
      List.iter (fun r -> r.r_cur <- scan t r ~from:r.r_cur f acc) !(t.rings));
  List.rev !acc

let dropped t =
  List.fold_left
    (fun acc r -> acc + Stdlib.max 0 (Atomic.get r.r_idx - t.cap))
    0 (all t)

let clear t =
  Mutex.protect t.mu (fun () ->
      List.iter
        (fun r ->
          Atomic.set r.r_idx 0;
          r.r_cur <- 0)
        !(t.rings))
