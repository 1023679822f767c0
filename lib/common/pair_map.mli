(** A map from a [(key, value)] pair of a history to a non-negative
    [int]: the one place that decides how a pair is stored.  A pair with
    a collision-free packing ({!Int_map.pack_pair}) lives in a flat
    {!Int_map}; the rare unpackable pair (an out-of-range key, a negative
    or huge value) goes to a tuple-keyed spill table, empty on every
    generated workload.  Lookups and inserts of packable pairs allocate
    nothing. *)

type t = {
  num_keys : int;  (** the packing stride *)
  packed : Int_map.t;  (** packed pair -> value *)
  spill : (int * int, int) Hashtbl.t;  (** unpackable pairs *)
}

val create : ?capacity:int -> num_keys:int -> unit -> t
(** [capacity] is a size hint for the packed map. *)

val get : t -> int -> int -> int
(** [get t k v] is the value bound to [(k, v)], or [-1] if unbound. *)

val set : t -> int -> int -> int -> unit
(** [set t k v x] binds [(k, v)] to [x], replacing any previous binding.
    @raise Invalid_argument if [x < 0] (reserved for "absent"). *)

val iter : t -> (int -> unit) -> unit
(** [iter t f] applies [f] to every bound value: packed pairs in slot
    order, then the spill. *)

val keep : t -> (int -> bool) -> t
(** [keep t pred] is a fresh map holding the packed bindings whose packed
    pair [pred] accepts, and every spill binding — unpackable pairs are
    never pruned. *)

val words : t -> int
(** Rough size of the backing store in words, O(1). *)
