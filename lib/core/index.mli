(** A shared index over a history: dense vertex numbering of committed
    transactions and write-value lookup tables.  Because every write on an
    object assigns a unique value (Definition 9), the tables resolve each
    read to the transaction that produced its value — the basis of the
    deterministic WR relation (paper Section IV-A).

    The lookup tables are int-packed open-addressing maps
    ({!Flat_index.Writers}): building them scans each transaction's op
    array directly, with no per-transaction hashtables and no boxed
    [(key * value)] tuple per write. *)

type t = private {
  history : History.t;
  committed : Txn.t array;  (** committed transactions in id order *)
  vertex_of_txn : int array;  (** txn id -> dense vertex, or -1 if aborted *)
  writers : Flat_index.Writers.t option array;
      (** final / intermediate / aborted writer resolution, striped by
          key ([k mod 8]) so registration parallelizes; [None] stripes
          (from {!build_deferred}) are populated on first lookup; route
          lookups through {!writer_of} *)
  mutable finals : Bytes.t option;
      (** lazily cached committed-op finality; read through {!finals} *)
}

val build : ?pool:Pool.t -> History.t -> t
(** [pool] parallelizes writer-table registration (one task per key
    stripe).  The resulting index is identical with or without it.  All
    stripes are populated eagerly, so concurrent {!writer_of} lookups
    from any stripe are safe. *)

val build_deferred : History.t -> t
(** Vertex numbering only — no writer tables.  Each stripe's table is
    built lazily by the first {!writer_of} on one of its keys; the
    timestamp fast path ({!Ts}) uses this to skip table registration
    entirely when certification succeeds.  Lazy forcing is not
    thread-safe across a stripe: call {!writer_of} on a deferred index
    only from serial code, or from the pool task owning the key's
    stripe ([k mod 8]). *)

val num_vertices : t -> int
val txn_of_vertex : t -> int -> Txn.t
val vertex : t -> Txn.id -> int
(** @raise Invalid_argument on an aborted transaction. *)

type writer = Flat_index.Writers.who =
  | Final of Txn.id
  | Intermediate of Txn.id
  | Aborted of Txn.id
  | Nobody

val finals : t -> Bytes.t
(** Finality of every committed op, flat across the whole history in op
    scan order — index [base + i] where [base] is the running op count
    of the preceding transactions (aborted ops read ['\000']).  Computed
    on first use and cached; shared by writer-table registration and the
    timestamp-chain builder ({!Ts.build}).  Same thread-safety
    discipline as lazy writer tables: first use from serial code or a
    single owning task.  Decided per transaction by {!Txn.mark_finals}. *)

val writer_of : t -> Op.key -> Op.value -> writer
(** Who produced value [v] of object [x]?  [Final] writers are the only
    legitimate sources under the INT axiom + committed visibility. *)
