(* Compact binary primitives shared by the history codecs, the service
   wire protocol and the persistence layer: LEB128 varints (zigzag for
   signed values) and length-prefixed strings.  Encoding appends to a
   caller-owned [Buffer.t]; decoding reads from an immutable source
   through a mutable cursor and raises [Decode_error] on malformed or
   truncated input — callers at the protocol boundary catch it and turn
   it into a [result]. *)

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Decode_error m)) fmt

(* A byte source the reader cursors over: an in-heap string (the wire
   protocol's frame payloads) or an mmap'd file (the zero-copy history
   ingest path).  The map variant never copies the file into the OCaml
   heap — readers index the page cache directly, and several domains
   may cursor over disjoint ranges of the same map concurrently. *)
module Source = struct
  type bigstring =
    (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = Str of string | Map of bigstring

  let of_string s = Str s

  let length = function
    | Str s -> String.length s
    | Map m -> Bigarray.Array1.dim m

  (* Callers bounds-check [pos] before calling. *)
  let get t i =
    match t with
    | Str s -> String.unsafe_get s i
    | Map m -> Bigarray.Array1.unsafe_get m i

  let sub_string t pos len =
    match t with
    | Str s -> String.sub s pos len
    | Map m ->
        let b = Bytes.create len in
        for i = 0 to len - 1 do
          Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get m (pos + i))
        done;
        Bytes.unsafe_to_string b

  let get_u32le t pos =
    Char.code (get t pos)
    lor (Char.code (get t (pos + 1)) lsl 8)
    lor (Char.code (get t (pos + 2)) lsl 16)
    lor (Char.code (get t (pos + 3)) lsl 24)

  let map_file path =
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        (* An empty mapping is an error on Linux; an empty source is
           not. *)
        if size = 0 then Str ""
        else
          Map
            (Bigarray.array1_of_genarray
               (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |])))
end

type reader = { src : Source.t; mutable pos : int }

let reader ?(pos = 0) src = { src = Source.of_string src; pos }
let reader_of_source ?(pos = 0) src = { src; pos }
let remaining r = Source.length r.src - r.pos
let at_end r = remaining r <= 0
let pos r = r.pos
let seek r pos = r.pos <- pos

let read_byte r =
  if r.pos >= Source.length r.src then
    fail "truncated input at byte %d" r.pos;
  let b = Char.code (Source.get r.src r.pos) in
  r.pos <- r.pos + 1;
  b

let read_enum what of_byte r =
  let b = read_byte r in
  match of_byte b with Some x -> x | None -> fail "unknown %s byte %d" what b

let read_bytes r len =
  if len < 0 || len > remaining r then
    fail "%d raw bytes overrun input (%d left)" len (remaining r);
  let s = Source.sub_string r.src r.pos len in
  r.pos <- r.pos + len;
  s

(* Unsigned LEB128 over the full 63-bit (plus sign bit) native int: the
   writer shifts with [lsr], so negative ints terminate after at most 10
   groups and round-trip bit-exactly. *)
let add_uvarint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let read_uvarint r =
  let result = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !shift >= 63 then fail "varint longer than 63 bits at byte %d" r.pos;
    let b = read_byte r in
    result := !result lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  !result

(* Zigzag: small magnitudes of either sign stay short. *)
let add_varint buf n = add_uvarint buf ((n lsl 1) lxor (n asr 62))

let read_varint r =
  let u = read_uvarint r in
  (u lsr 1) lxor (- (u land 1))

let add_string buf s =
  add_uvarint buf (String.length s);
  Buffer.add_string buf s

let read_string r =
  let len = read_uvarint r in
  if len < 0 || len > remaining r then
    fail "string of %d bytes overruns input (%d left)" len (remaining r);
  let s = Source.sub_string r.src r.pos len in
  r.pos <- r.pos + len;
  s

(* Fixed-width little-endian u32: the length and CRC fields of the WAL
   and snapshot files. *)
let add_u32le buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

(* ------------------------------------------------------------------ *)
(* Blocking file-descriptor I/O shared by the wire and the durable
   files. *)

let rec really_write fd b off len =
  if len > 0 then
    let n =
      try Unix.write fd b off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    really_write fd b (off + n) (len - n)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
