(** Structured journal of service events in lock-free per-domain rings.

    Same recording discipline as {!Obs_trace}: disabled (the default)
    {!emit} is one [Atomic.get] and a branch with zero allocation, so
    emit sites can live permanently in the service hot path.  Enabled,
    an event is five unboxed int stores into the calling domain's
    {!Obs_ring} (2^13 events; slot reserved with
    [Atomic.fetch_and_add]; systhreads share their carrier domain's
    ring); rings overwrite on wrap and {!dropped} accounts every
    overwritten event.

    An event is a {!kind} plus three int payload words whose meaning is
    per-kind (conventionally [a] = session id or shard, [b]/[c] =
    magnitudes: queue depth, pause ns, reclaimed words, close-reason
    code, fsync ns).  Timestamps are monotonic ns ({!Obs_clock}); map
    them to wall-clock at drain time if needed. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

type kind =
  | Throttle_on  (** a = sid, b = queued *)
  | Throttle_off  (** a = sid *)
  | Gc_compact  (** a = sid, b = pause ns, c = reclaimed words *)
  | Wal_fsync_stall  (** a = shard, b = fsync ns *)
  | Snapshot  (** a = shard, b = sessions snapshotted *)
  | Session_open  (** a = sid, b = shard *)
  | Session_close  (** a = sid, b = close-reason code *)
  | Session_resume  (** a = sid, b = last_seq *)
  | Poison  (** a = sid *)
  | Pin_warn  (** a = sid, b = stalled-for ns, c = live words pinned *)
  | Pin_fence  (** a = sid, b = stalled-for ns *)

val kind_code : kind -> int
(** Stable small-int codec for the wire protocol and JSONL sink. *)

val kind_of_code : int -> kind option
val kind_name : kind -> string

val emit : kind -> a:int -> b:int -> c:int -> unit
(** Record one event if the journal is enabled.  Allocation-free on
    both paths. *)

type event = {
  j_kind : kind;
  j_t : int;  (** ns, monotonic origin *)
  j_a : int;
  j_b : int;
  j_c : int;
  j_dom : int;  (** recording domain id *)
}

val events : unit -> event list
(** Buffered events from every domain's ring, oldest first —
    non-consuming (the wire [Session_stats] path).  Concurrent
    recording may be mid-overwrite; results are exact once the emitting
    region has quiesced. *)

val drain : unit -> event list
(** Events appended since the previous [drain], oldest first, advancing
    a per-ring cursor — the JSONL sink path.  Events overwritten before
    a drain reaches them are skipped (they are visible in {!dropped}).
    Serialize drainers externally. *)

val dropped : unit -> int
(** Events lost to ring overwrite since the last {!clear}. *)

val clear : unit -> unit
(** Drop buffered events and reset drain cursors.  Call only when no
    domain is concurrently emitting. *)
