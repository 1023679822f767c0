(** Per-shard write-ahead log of accepted service frames.

    Record discipline mirrors the [mtcbin1] binary history format:
    length-prefixed blocks with a per-block CRC-32, behind a
    magic+version header.  Appends are {e group-committed}: records
    accumulate in a user-space buffer and reach the kernel in one
    [write] syscall per {!flush} (the owning shard's drain barrier),
    per ack {!barrier}, per size threshold, or on {!close}.  Bytes
    survive a [kill -9] of the server once flushed; the {!sync} policy
    additionally controls [fsync] (protection against OS crashes and
    power loss).  [Always] keeps the historical
    write-plus-fsync-per-record discipline.

    Reading is total: a torn tail parses as a clean {!Truncated} stop, a
    mid-file CRC or tag mismatch as {!Corrupt}; neither raises. *)

type sync =
  | Always  (** fsync after every record *)
  | Batch
      (** fsync at the ack {!barrier} (before a verdict is acknowledged)
          and every few hundred records *)
  | Off  (** never fsync *)

val sync_of_string : string -> sync option
val sync_name : sync -> string

type record =
  | R_open of { sid : int; params : Session_state.params }
      (** the GC policy in [params] is re-applied on replay *)
  | R_feed of { sid : int; seq : int; txn : Txn.t }
  | R_close of { sid : int }

type header = { h_version : int; h_shard : int; h_nshards : int; h_gen : int }

(** {1 Writing} *)

type writer

val create :
  ?on_fsync:(int -> unit) ->
  path:string ->
  shard:int ->
  nshards:int ->
  gen:int ->
  sync:sync ->
  unit ->
  writer
(** Create (truncating) a WAL at [path] and write its header.
    [on_fsync] is invoked after every fsync with the fsync's measured
    duration in ns — the metrics / stall-detection hook. *)

val append : writer -> record -> int
(** Append one record to the group-commit buffer and apply the sync
    policy (which may flush and/or fsync); returns the encoded bytes
    appended. *)

val flush : writer -> unit
(** Write any group-committed records to the kernel in one [write]
    syscall — the owning shard calls this at its drain barrier (ingress
    queue empty).  No fsync. *)

val barrier : writer -> unit
(** Make everything appended so far durable enough to acknowledge a
    verdict: flush, plus an fsync in [Batch] mode. *)

val bytes_written : writer -> int
(** Bytes appended so far, including any still in the group-commit
    buffer. *)

val close : writer -> unit
(** Final fsync (unless [Off]) and close.  Idempotent. *)

(** {1 Reading} *)

type tail =
  | Complete
  | Truncated of int  (** torn tail starting at this byte offset *)
  | Corrupt of { offset : int; reason : string }

val read_path : string -> (header * record list * tail, string) result
(** Read a whole WAL.  [Error] only for an unusable file (unreadable,
    bad magic or header); otherwise the valid record prefix plus how the
    file ended. *)
