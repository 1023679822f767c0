(** Low-overhead span tracing into per-domain ring buffers.

    Disabled (the default) the hot path is one [Atomic.get] and a
    branch, with zero allocation — cheap enough to leave span sites in
    [Online.add_txn] and [Pearce_kelly.add_edge] permanently.

    Enabled, {!exit} appends a completed span to the calling domain's
    ring buffer ({!Obs_ring}, 2^15 spans): overwrite-on-wrap (newest
    spans win, {!dropped} counts the rest).  Systhreads share their
    domain's ring; slots are reserved with [Atomic.fetch_and_add] so
    they never tear.

    Span names are interned once at module init
    ([let sp_x = Obs_trace.intern "..."]) so the hot path passes ints,
    not strings. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val clear : unit -> unit
(** Drop all buffered events and reset the dropped counter.  Call only
    when no domain is concurrently recording. *)

(** {1 Names} *)

val intern : string -> int
(** Intern a span name; returns a stable id.  Not for hot paths — call
    once per site at module init. *)

val name_of : int -> string

(** {1 Recording} *)

val enter : unit -> int
(** Timestamp to later pass to {!exit}; a sentinel when tracing is
    disabled (so a span enabled mid-flight is discarded, not recorded
    with a garbage duration). *)

val exit : int -> int -> unit
(** [exit name_id t0] records the span if tracing was on at both ends.
    Allocation-free. *)

val with_span : int -> (unit -> 'a) -> 'a
(** Closure convenience for cold call sites; re-raises, recording the
    span on the exception path too. *)

val instant : int -> unit
(** Zero-duration marker event. *)

(** {1 Draining} *)

type event = {
  ev_name : string;
  ev_t0 : int;   (** ns, monotonic origin *)
  ev_dur : int;  (** ns *)
  ev_dom : int;  (** recording domain id *)
}

val events : unit -> event list
(** Buffered events from every domain's ring, oldest first (sorted by
    [ev_t0]).  Concurrent recording may be mid-overwrite; drain after
    the traced region completes for exact results. *)

val dropped : unit -> int
(** Events lost to ring overwrite since the last {!clear}. *)
