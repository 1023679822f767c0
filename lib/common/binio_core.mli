(** Binary encode/decode primitives shared by the history codecs
    ({!module:Binio}), the service wire protocol ({!module:Wire}) and
    the persistence layer ([lib/persist]): LEB128 varints (zigzag for
    signed ints, so every native [int] including [min_int] round-trips)
    and length-prefixed strings.

    Encoders append to a caller-owned [Buffer.t] — one buffer per
    connection, reused across frames.  Decoders consume a [reader]
    cursor over an immutable source and raise {!Decode_error} on any
    malformed or truncated input; the protocol layer catches it at the
    frame boundary. *)

exception Decode_error of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Decode_error} with the formatted message. *)

(** The byte sources a reader can cursor over. *)
module Source : sig
  type bigstring =
    (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t =
    | Str of string  (** in-heap bytes (wire frames, tests) *)
    | Map of bigstring
        (** an mmap'd file: reads index the page cache, nothing is
            copied into the OCaml heap.  The mapping lives until the
            value is collected; keep the source (or a reader over it)
            alive for as long as decoded views need the bytes. *)

  val of_string : string -> t
  val length : t -> int

  val get : t -> int -> char
  (** Unchecked byte access — callers bounds-check [i] first. *)

  val sub_string : t -> int -> int -> string
  (** Copy a range out as a string ([pos], [len] must be in bounds). *)

  val get_u32le : t -> int -> int
  (** Little-endian u32 at [pos] (the four bytes must be in bounds). *)

  val map_file : string -> t
  (** Read-only map of a whole file ([Str ""] for an empty file, which
      cannot be mapped).  The fd is closed before returning — the
      mapping survives it.  Several domains may read (and cursor
      readers over) the same map concurrently.
      @raise Unix.Unix_error if the file cannot be opened or mapped. *)
end

type reader = { src : Source.t; mutable pos : int }

val reader : ?pos:int -> string -> reader
(** Cursor over an in-heap string ([Source.Str]). *)

val reader_of_source : ?pos:int -> Source.t -> reader

val remaining : reader -> int
val at_end : reader -> bool

val pos : reader -> int
val seek : reader -> int -> unit
(** Absolute cursor moves, for formats with an offset table (the binary
    history file's block index). *)

val read_byte : reader -> int

val read_enum : string -> (int -> 'a option) -> reader -> 'a
(** [read_enum what of_byte r] reads one byte and maps it through
    [of_byte].
    @raise Decode_error ["unknown <what> byte <b>"] if it maps to
    nothing. *)

val read_bytes : reader -> int -> string
(** [read_bytes r len] copies the next [len] raw bytes out as a string.
    @raise Decode_error if fewer than [len] bytes remain. *)

val add_uvarint : Buffer.t -> int -> unit
val read_uvarint : reader -> int

val add_varint : Buffer.t -> int -> unit
(** Zigzag-encoded signed varint. *)

val read_varint : reader -> int

val add_string : Buffer.t -> string -> unit
val read_string : reader -> string

val add_u32le : Buffer.t -> int -> unit
(** Fixed-width little-endian u32 (the WAL and snapshot length and CRC
    fields). *)

(** {1 File-descriptor I/O} *)

val really_write : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** [really_write fd b off len] writes all [len] bytes, retrying short
    writes and [EINTR].
    @raise Unix.Unix_error on any other write failure. *)

val fsync_dir : string -> unit
(** Best-effort [fsync] of a directory (after a create, rename or
    unlink in it); an unopenable directory is skipped silently. *)
