(* Spans recorded by the benchmark around its calls into each layer:
   name, start, end, parent and the id of the operation (one check, one
   feed, one sync) they belong to.  Kept in memory and written out as
   JSON lines when the run ends.  Recording is off in untraced runs, and
   [with_span] is then a plain call. *)

type t = {
  id : int;
  name : string;
  op : int;
  parent : int;
  start : int;
  mutable stop : int;
}

let enabled = ref false
let spans : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let with_span ?(op = 0) name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> 0 in
    let s = { id = !next_id; name; op; parent; start = Obs_clock.now_ns (); stop = 0 } in
    open_ids := s.id :: !open_ids;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Obs_clock.now_ns ();
        open_ids := List.tl !open_ids;
        spans := s :: !spans)
      f
  end

(* Record an already-measured interval (for calls timed by the load
   generator itself, where [with_span]'s closure would sit in the hot
   loop). *)
let add ?(op = 0) name ~start ~stop =
  if !enabled then begin
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> 0 in
    spans := { id = !next_id; name; op; parent; start; stop } :: !spans
  end

let to_stat (s : t) =
  { Pb_stats.id = s.id; parent = s.parent; start = s.start; stop = s.stop }

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start\":%d,\"end\":%d}\n"
        s.id s.name s.op s.parent s.start s.stop)
    (List.rev !spans);
  close_out oc
