(** Transactions: a finite sequence of operations executed by one session
    (paper Definition 1), together with the client-visible outcome and the
    logical start/finish times used for the real-time order. *)

type id = int

type status = Committed | Aborted

type t = {
  id : id;  (** unique; equals the transaction's index in its history *)
  session : int;  (** issuing session, [0] is reserved for the initial txn *)
  ops : Op.t array;  (** in program order *)
  status : status;
  start_ts : int;  (** logical time at which the transaction began *)
  commit_ts : int;  (** logical time at which it finished (commit or abort) *)
}

val make :
  id:id ->
  session:int ->
  ?status:status ->
  ?start_ts:int ->
  ?commit_ts:int ->
  Op.t list ->
  t
(** Timestamps default to [id] (both), giving a sequential real-time
    order that is convenient in tests. *)

val is_committed : t -> bool

(** {2 Op facts}

    The paper's judgements, decided on [t.ops] without allocating; only
    op arrays over 16 ops (the initial transaction) take a keyed pass. *)

val iter_external_reads : t -> (int -> Op.key -> Op.value -> unit) -> unit
(** [T |- R(x,v)]: [iter_external_reads t f] calls [f i x v] for the
    first read [R(x,v)] of each object [x] that [t] reads before any
    write to [x], in op order, with [i] its op index. *)

val iter_final_writes : t -> (int -> Op.key -> Op.value -> unit) -> unit
(** [T |- W(x,v)]: calls [f i x v] once per object [x] that [t] writes,
    with [v] the last value written and [i] that write's op index.
    Ordered by each object's first write. *)

val iter_intermediate_writes : t -> (int -> Op.key -> Op.value -> unit) -> unit
(** Calls [f i x v] for every write [W(x,v)] whose value differs from
    the final value of [x] in [t], in op order.  Decided by value, not by
    position: a write repeating its object's final value is that final
    version, not an intermediate one.  Reading an intermediate write from
    another transaction is the INTERMEDIATEREAD anomaly (Adya's G1b). *)

val final_write : t -> Op.key -> int
(** Op index of [t]'s final write to [x], or [-1] if [t] does not write
    [x]. *)

val writes_key : t -> Op.key -> bool

val mark_finals : t -> Bytes.t -> int -> unit
(** [mark_finals t b off] stores the finality of each op of [t] at
    [b.[off + i]]: ['\001'] for the final write of its object, ['\000']
    for every other op. *)

val pp : Format.formatter -> t -> unit
val pp_brief : Format.formatter -> t -> unit
