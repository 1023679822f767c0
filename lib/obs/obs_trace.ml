let on = Atomic.make false

let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

(* ------------------------------------------------------------------ *)
(* Interned span names: the hot path carries ints, the drain path maps
   them back.  Interning happens at module init of the instrumented
   code, so the mutex here is uncontended in steady state. *)

let names_mu = Mutex.create ()
let names_tbl : (string, int) Hashtbl.t = Hashtbl.create 64
let names : string array ref = ref (Array.make 64 "")
let names_len = ref 0

let intern s =
  Mutex.lock names_mu;
  let id =
    match Hashtbl.find_opt names_tbl s with
    | Some id -> id
    | None ->
        let id = !names_len in
        if id = Array.length !names then begin
          let bigger = Array.make (2 * id) "" in
          Array.blit !names 0 bigger 0 id;
          names := bigger
        end;
        !names.(id) <- s;
        incr names_len;
        Hashtbl.replace names_tbl s id;
        id
  in
  Mutex.unlock names_mu;
  id

let name_of id =
  Mutex.lock names_mu;
  let s = if id >= 0 && id < !names_len then !names.(id) else "?" in
  Mutex.unlock names_mu;
  s

(* ------------------------------------------------------------------ *)
(* Spans are (name id, t0, duration) records in per-domain rings. *)

let rings = Obs_ring.create ~width:3 ~cap_bits:15

let record name t0 dur =
  let r = Obs_ring.local rings in
  let i = Obs_ring.reserve r in
  let w = Obs_ring.words r in
  Array.unsafe_set w i name;
  Array.unsafe_set w (i + 1) t0;
  Array.unsafe_set w (i + 2) dur

(* ------------------------------------------------------------------ *)

let disabled_t0 = min_int

let enter () = if Atomic.get on then Obs_clock.now_ns () else disabled_t0

let exit name t0 =
  if t0 <> disabled_t0 && Atomic.get on then
    record name t0 (Obs_clock.now_ns () - t0)

let with_span name f =
  let t0 = enter () in
  match f () with
  | v ->
      exit name t0;
      v
  | exception e ->
      exit name t0;
      raise e

let instant name = if Atomic.get on then record name (Obs_clock.now_ns ()) 0

(* ------------------------------------------------------------------ *)

let clear () = Obs_ring.clear rings

type event = { ev_name : string; ev_t0 : int; ev_dur : int; ev_dom : int }

let events () =
  Obs_ring.records rings (fun r i ->
      let w = Obs_ring.words r in
      {
        ev_name = name_of w.(i);
        ev_t0 = w.(i + 1);
        ev_dur = w.(i + 2);
        ev_dom = Obs_ring.dom r;
      })
  |> List.stable_sort (fun a b -> compare a.ev_t0 b.ev_t0)

let dropped () = Obs_ring.dropped rings
