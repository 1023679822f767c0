(** Read and write operations on a key-value store (paper Section II-B).

    Keys and values are integers.  Following the common practice in
    black-box isolation checking, every write in a history is expected to
    assign a value unique for its object; [History.validate] enforces
    this. *)

type key = int
type value = int

type t =
  | Read of key * value  (** [Read (x, v)]: read [x], observed value [v] *)
  | Write of key * value  (** [Write (x, v)]: write value [v] to [x] *)

val key : t -> key
val value : t -> value
val is_read : t -> bool
val is_write : t -> bool

val pp : Format.formatter -> t -> unit
(** Prints [R(x3)=17] / [W(x3):=18]. *)

val to_string : t -> string
(** The [pp] text, built without a formatter. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends [to_string op]. *)

val add_int : Buffer.t -> int -> unit
(** Appends [string_of_int n] without building the string. *)

exception Malformed

val parse : string -> int -> int -> t
(** [parse s i j] is the op spelled by exactly [s.[i..j)].  The op
    grammar:

    {v
    op  ::= "R(x" int ")=" int  |  "W(x" int "):=" int
    int ::= [+-]? digit (digit | '_')*
    v}

    where an [int] must fit an OCaml [int] (underscores are skipped) —
    the integer syntax of [Scanf]'s ["%d"].  No allocation beyond the
    result (literals over 18 digits aside).
    @raise Malformed on anything else, including a trailing suffix
    (["R(x1)=5junk"], or two ops glued by a missing space). *)

val of_string : string -> t option
(** [parse] over a whole string: parses the [pp] format back. *)

val equal : t -> t -> bool
val compare : t -> t -> int
