(** Per-domain rings of fixed-width int records: the one buffer under
    {!Obs_trace} and {!Obs_journal}.

    Each domain that records gets its own ring on first use, a single
    flat [int array] of [capacity * width] words.  A writer reserves a
    slot with [Atomic.fetch_and_add] (systhreads share their carrier
    domain's ring, so slots never tear) and stores its [width] words
    from the returned offset; nothing is allocated.  Rings overwrite on
    wrap: the newest [capacity] records survive and {!dropped} counts
    the rest. *)

type t
(** A family of per-domain rings sharing one record layout. *)

type ring
(** One domain's ring. *)

val create : width:int -> cap_bits:int -> t
(** Rings of [2^cap_bits] records of [width] ints each. *)

(** {1 Recording} *)

val local : t -> ring
(** The calling domain's ring, created and registered on first use. *)

val reserve : ring -> int
(** Reserve the next slot and return the offset of its first word in
    {!words}; the record occupies [offset .. offset + width - 1]. *)

val words : ring -> int array

val dom : ring -> int
(** Id of the domain that owns the ring. *)

(** {1 Reading} *)

val records : t -> (ring -> int -> 'a) -> 'a list
(** [records t f] maps [f ring offset] over every surviving record of
    every ring, each ring's records oldest first.  Non-consuming.
    Concurrent recording may be mid-overwrite; results are exact once
    recording has quiesced. *)

val drain : t -> (ring -> int -> 'a) -> 'a list
(** Like {!records}, but only records appended since the previous
    [drain], advancing a per-ring cursor.  Records overwritten before a
    drain reaches them are skipped (they are counted by {!dropped}).
    Runs [f] under the family's mutex, so drainers are serialized. *)

val dropped : t -> int
(** Records lost to overwrite since the last {!clear}. *)

val clear : t -> unit
(** Forget every record and reset the drain cursors.  Call only when no
    domain is concurrently recording. *)
