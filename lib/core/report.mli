(** Human-readable counterexample reports (paper Figure 2, step 4; the
    paper emphasizes that MTC's counterexamples are concise and easy to
    interpret because each involved transaction is a mini-transaction). *)

val render : History.t -> Checker.level -> Checker.violation -> string
(** A multi-line report: the violated level, the anomaly shape, the
    involved transactions with their operations, and the dependency cycle
    if there is one. *)

val classify : Checker.violation -> Anomaly.kind option
(** Best-effort mapping of a violation onto the catalogue of Figure 5:
    intra-screen violations map directly; a DIVERGENCE instance is a
    LOSTUPDATE; cycles are classified by their RW-edge pattern
    (two adjacent RWs over two distinct objects: WRITESKEW; exactly one
    RW: a causality-shaped anomaly; non-adjacent RWs: LONGFORK). *)

val render_parts :
  Checker.level -> Checker.violation -> string option * string
(** The checking service's verdict for a violation found without the
    history at hand: the anomaly name (if {!classify} finds one) and a
    one-line rendering.  Live feeds and WAL replay both call it, which
    is what keeps a counterexample byte-identical across a restart. *)

val summary : History.t -> (Checker.level * Checker.outcome) list -> string
(** One line per level, e.g. for CLI output. *)
