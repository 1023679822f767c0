(* Structured service-event journal: typed events in the same per-domain
   [Obs_ring]s as Obs_trace's spans — disabled is one atomic load and a
   branch, enabled stores five unboxed ints into the calling domain's
   ring. *)

let on = Atomic.make false

let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

type kind =
  | Throttle_on
  | Throttle_off
  | Gc_compact
  | Wal_fsync_stall
  | Snapshot
  | Session_open
  | Session_close
  | Session_resume
  | Poison
  | Pin_warn
  | Pin_fence

(* The one declaration of the kinds: a kind's wire code is its index
   here, its JSONL name the string beside it. *)
let kinds =
  [|
    (Throttle_on, "throttle_on");
    (Throttle_off, "throttle_off");
    (Gc_compact, "gc_compact");
    (Wal_fsync_stall, "wal_fsync_stall");
    (Snapshot, "snapshot");
    (Session_open, "session_open");
    (Session_close, "session_close");
    (Session_resume, "session_resume");
    (Poison, "poison");
    (Pin_warn, "pin_warn");
    (Pin_fence, "pin_fence");
  |]

(* [k] passed along rather than captured: a closure would allocate on
   the enabled [emit] path *)
let rec index_of k i = if fst kinds.(i) == k then i else index_of k (i + 1)
let kind_code k = index_of k 0

let kind_of_code c =
  if c >= 0 && c < Array.length kinds then Some (fst kinds.(c)) else None

let kind_name k = snd kinds.(kind_code k)

(* ------------------------------------------------------------------ *)
(* Events are (kind code, monotonic ns, a, b, c) records in per-domain
   rings. *)

let rings = Obs_ring.create ~width:5 ~cap_bits:13

let record kind t a b c =
  let r = Obs_ring.local rings in
  let i = Obs_ring.reserve r in
  let w = Obs_ring.words r in
  Array.unsafe_set w i kind;
  Array.unsafe_set w (i + 1) t;
  Array.unsafe_set w (i + 2) a;
  Array.unsafe_set w (i + 3) b;
  Array.unsafe_set w (i + 4) c

let emit kind ~a ~b ~c =
  if Atomic.get on then
    record (kind_code kind) (Obs_clock.now_ns ()) a b c

(* ------------------------------------------------------------------ *)

type event = {
  j_kind : kind;
  j_t : int;  (** ns, monotonic origin *)
  j_a : int;
  j_b : int;
  j_c : int;
  j_dom : int;
}

let event_at r i =
  let w = Obs_ring.words r in
  {
    j_kind = fst kinds.(w.(i));
    j_t = w.(i + 1);
    j_a = w.(i + 2);
    j_b = w.(i + 3);
    j_c = w.(i + 4);
    j_dom = Obs_ring.dom r;
  }

(* stable: the ring order is emission order, which equal timestamps
   keep *)
let by_time = List.stable_sort (fun a b -> compare a.j_t b.j_t)
let events () = by_time (Obs_ring.records rings event_at)
let drain () = by_time (Obs_ring.drain rings event_at)
let dropped () = Obs_ring.dropped rings
let clear () = Obs_ring.clear rings
