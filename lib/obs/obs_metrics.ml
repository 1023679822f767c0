module Counter = struct
  (* One atomic would serialize every shard domain on the same cache
     line; 8 stripes indexed by domain id keep always-on counters (PK
     inserts, pool tasks) out of each other's way. *)
  let stripes = 8

  type t = int Atomic.t array

  let create () = Array.init stripes (fun _ -> Atomic.make 0)
  let stripe () = (Domain.self () :> int) land (stripes - 1)

  let add t n =
    let a = Array.unsafe_get t (stripe ()) in
    ignore (Atomic.fetch_and_add a n)

  let incr t = add t 1

  let get t =
    let s = ref 0 in
    Array.iter (fun a -> s := !s + Atomic.get a) t;
    !s
end

module Gauge = struct
  type t = int Atomic.t

  let create () = Atomic.make 0
  let set t v = Atomic.set t v
  let get t = Atomic.get t

  let rec max_update t v =
    let cur = Atomic.get t in
    if v > cur && not (Atomic.compare_and_set t cur v) then max_update t v
end

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_histogram of Obs_histogram.t

type entry = { e_name : string; e_help : string; e_inst : instrument }

type registry = {
  mu : Mutex.t;
  mutable entries : entry list;  (* reversed registration order *)
}

let create () = { mu = Mutex.create (); entries = [] }
let default = create ()

let valid_name s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       s

(* Find-or-create under the registry mutex, so module-init registration
   from several domains can race safely.  The caller checks the kind of
   what it gets back. *)
let register r name help make =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Obs.Metrics: invalid metric name %S" name);
  Mutex.protect r.mu (fun () ->
      match List.find_opt (fun e -> e.e_name = name) r.entries with
      | Some e -> e.e_inst
      | None ->
          let i = make () in
          r.entries <- { e_name = name; e_help = help; e_inst = i } :: r.entries;
          i)

let kind_clash name =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %S already registered with a different kind"
       name)

let counter r ?(help = "") name =
  match register r name help (fun () -> I_counter (Counter.create ())) with
  | I_counter x -> x
  | _ -> kind_clash name

let gauge r ?(help = "") name =
  match register r name help (fun () -> I_gauge (Gauge.create ())) with
  | I_gauge x -> x
  | _ -> kind_clash name

let histogram r ?(help = "") name =
  match register r name help (fun () -> I_histogram (Obs_histogram.create ())) with
  | I_histogram x -> x
  | _ -> kind_clash name

let iter r f =
  List.iter
    (fun e -> f ~name:e.e_name ~help:e.e_help e.e_inst)
    (List.rev (Mutex.protect r.mu (fun () -> r.entries)))
