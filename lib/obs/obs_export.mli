(** Serializers: Chrome trace-event JSON for spans; Prometheus text
    exposition format 0.0.4 and flat JSON members for metric
    registries. *)

val chrome_json : Obs_trace.event list -> string
(** Trace-event JSON loadable by Perfetto ([ui.perfetto.dev]) and
    [chrome://tracing]: one complete ("ph":"X") event per span, [ts] and
    [dur] in microseconds, [pid] 1, [tid] = recording domain id. *)

val prometheus : Obs_metrics.registry -> string
(** Text exposition of every instrument in the registry, registration
    order, each preceded by [# HELP] (when non-empty) and [# TYPE]
    lines.  Histograms emit cumulative [_bucket{le="..."}] series over
    the log2 bucket upper edges (buckets past the observed max are
    collapsed into [+Inf]), then [_sum] and [_count]. *)

val json_members : Obs_metrics.registry -> string list
(** One ["key":value] JSON member per instrument, in registration order,
    keyed by the name without its [mtc_] prefix and [_total] suffix
    ([mtc_txns_fed_total] is ["txns_fed"]).  Counters and gauges are
    integers; a histogram is [{"count","mean","p50","p99","max"}] from
    one snapshot (mean rounded, percentiles bucket upper edges). *)
