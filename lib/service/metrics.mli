(** Process-wide service counters and per-feed histograms, thread-safe,
    dumpable as JSON via the [Stats] frame and on server shutdown.

    Each metric is one {!Obs.Metrics} instrument, registered once by
    {!create} in [reg] (names [mtc_]-prefixed; [mtc serve
    --metrics-port] exposes the registry as Prometheus text).  Update
    and read a metric through its field with [Obs.Counter], [Obs.Gauge]
    or [Obs.Histogram]; histogram percentiles are bucket upper edges,
    exact to within a factor of two. *)

type t = {
  reg : Obs.Metrics.registry;
  created_at : float;  (** [Unix.gettimeofday] at {!create} *)
  connections : Obs.Counter.t;
  sessions_opened : Obs.Counter.t;
  sessions_closed : Obs.Counter.t;
  txns_fed : Obs.Counter.t;
  syncs : Obs.Counter.t;
  violations : Obs.Counter.t;
  frames_in : Obs.Counter.t;
  frames_out : Obs.Counter.t;
  throttles : Obs.Counter.t;
  protocol_errors : Obs.Counter.t;
  queue_high_water : Obs.Gauge.t;  (** of any session's ingress queue *)
  wal_bytes : Obs.Counter.t;
  wal_fsyncs : Obs.Counter.t;
  snapshots : Obs.Counter.t;  (** shard snapshots written *)
  replay_frames : Obs.Counter.t;
  replay_ms : Obs.Gauge.t;
  open_conns : Obs.Gauge.t;
  epoll_wakeups : Obs.Counter.t;
      (** event-loop waits that delivered at least one readiness event *)
  gc_runs : Obs.Counter.t;
  gc_reclaimed_words : Obs.Counter.t;
  live_words : Obs.Gauge.t;
      (** aggregate live-word estimate across all online checkers *)
  gc_last_reclaimed : Obs.Gauge.t;
  horizon_pinned : Obs.Gauge.t;
      (** sessions flagged by the horizon-pin detector *)
  pin_fences : Obs.Counter.t;
      (** sessions force-closed by [--pin-fence close] *)
  feed_ns : Obs.Histogram.t;
  feed_words : Obs.Histogram.t;
      (** [Gc.minor_words] delta of each feed on its processing domain *)
  gc_ns : Obs.Histogram.t;  (** watermark-compaction pauses *)
}

val create : unit -> t

val global : t
(** The instance [mtc serve] reports from. *)

val uptime_s : t -> float
(** Seconds since [create]. *)

(** {1 Recorders that update several instruments together} *)

val feed : t -> ns:int -> words:int -> unit
(** One transaction processed by a session worker, in [ns] nanoseconds,
    allocating [words] minor-heap words. *)

val replay : t -> frames:int -> ms:float -> unit
(** Startup restore: [frames] WAL records replayed in [ms]
    milliseconds. *)

val gc_run : t -> ns:int -> reclaimed:int -> unit
(** One watermark compaction: pause of [ns] nanoseconds reclaiming
    [reclaimed] estimated words. *)

val to_json : t -> string
(** One JSON object: ["uptime_s"], then every instrument of [reg] in
    registration order under its {!Obs.Export.json_members} key. *)
