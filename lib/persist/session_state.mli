(** One checking session's durable state: the record the live server
    mutates, the WAL tail replays into and snapshots store, with its one
    parameter codec and its one feed step.  Live traffic and WAL replay
    both run {!feed}, so they poison on the same transaction and render
    the same bytes. *)

type params = {
  level : Checker.level;
  num_keys : int;
  skew : int;
  ts : Ts.mode;
  gc : Online.gc;  (** watermark-GC policy the session was opened with *)
}

type state =
  | Live of Online.t  (** never poisoned: {!feed} renders a violation *)
  | Poisoned of { anomaly : string option; rendered : string }
      (** the rendered verdict — all the session can ever produce again *)

type t = {
  sid : int;
  params : params;
  mutable last_seq : int;  (** highest applied feed sequence number *)
  mutable state : state;
}

val create : sid:int -> params -> t
(** A fresh live session at [last_seq = 0]. *)

val add_params : Buffer.t -> params -> unit
(** The layout of the WAL open record and the snapshot entry: level
    byte, [num_keys] uvarint, [skew] varint, ts-mode byte, gc byte
    (0 = off, 1 = auto, 2 = words followed by the uvarint ceiling). *)

val read_params : Binio.reader -> params
(** @raise Binio.Decode_error on an unknown byte or a non-positive gc
    word ceiling. *)

type step =
  | Ok_so_far  (** accepted, or ignored by an already poisoned session *)
  | Violation of { anomaly : string option; rendered : string }
      (** this transaction poisoned the session; [state] holds the same
          rendering ({!Report.render_parts}) *)

val feed : t -> Txn.t -> step
(** Run one transaction through the session's checker, poisoning the
    session on a violation.  [last_seq] is the caller's to advance.
    @raise Invalid_argument on session-fatal misuse ({!Online.add_txn}:
    id reuse, out-of-order commits) — the caller closes the session. *)
