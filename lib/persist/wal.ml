(* Per-shard write-ahead log of accepted service frames.

   File layout (all multi-byte integers little-endian u32 unless they
   are Binio varints):

     magic "mtcwal1\n" (8 bytes)
     u32 header length | header payload | u32 CRC-32(header payload)
     record*

   where the header payload is [version=1, shard, nshards, gen] as
   uvarints and every record is

     u32 payload length | payload | u32 CRC-32(payload)

   with the payload a tagged Binio encoding (1 = open, 2 = feed,
   3 = close).  Appends are group-committed: records accumulate in a
   user-space buffer and reach the kernel in one [write] per drain
   barrier (the owning shard's ingress queue going empty), per ack
   barrier (session-open and verdict acks), per size threshold, or on
   close — a thousand-feed burst is one syscall, not a thousand.  After the flush the bytes live in the
   page cache, so a [kill -9] of the server loses at most the buffered
   tail since the last barrier; [fsync] (the [sync] policy) adds
   protection against OS crashes and power loss.  [Always] mode keeps
   the historical record-per-write+fsync discipline.

   A torn tail (crash mid-append) parses as a clean [Truncated] stop; a
   CRC or tag mismatch before the tail is [Corrupt].  Neither escapes as
   an exception.

   v2: [R_open] carries the session's watermark-GC policy, so WAL-only
   replay recreates the checker with the same bounded-memory setting
   (and replays within the same bound). *)

let magic = "mtcwal1\n"
let version = 2

(* Records can embed a whole wire transaction; mirror the wire frame
   ceiling so a corrupt length prefix cannot make restore allocate
   gigabytes. *)
let max_record = 1 lsl 24

type sync = Always | Batch | Off

let sync_of_string = function
  | "always" -> Some Always
  | "batch" -> Some Batch
  | "off" -> Some Off
  | _ -> None

let sync_name = function Always -> "always" | Batch -> "batch" | Off -> "off"

(* In [Batch] mode, fsync every this many appends even without an
   explicit barrier, bounding the window an OS crash can lose.  Only an
   OS crash: a plain server kill loses nothing (the bytes are already
   written), and verdict acks are guarded by the {!barrier} fsync — so
   this ceiling trades a modest loss window for keeping streaming
   throughput close to the WAL-off line. *)
let batch_every = 2048

type record =
  | R_open of { sid : int; params : Session_state.params }
  | R_feed of { sid : int; seq : int; txn : Txn.t }
  | R_close of { sid : int }

type header = { h_version : int; h_shard : int; h_nshards : int; h_gen : int }

let add_record buf = function
  | R_open { sid; params } ->
      Buffer.add_char buf '\001';
      Binio.add_uvarint buf sid;
      Session_state.add_params buf params
  | R_feed { sid; seq; txn } ->
      Buffer.add_char buf '\002';
      Binio.add_uvarint buf sid;
      Binio.add_uvarint buf seq;
      Binio.add_txn buf txn
  | R_close { sid } ->
      Buffer.add_char buf '\003';
      Binio.add_uvarint buf sid

let read_record r =
  match Binio.read_byte r with
  | 1 ->
      let sid = Binio.read_uvarint r in
      R_open { sid; params = Session_state.read_params r }
  | 2 ->
      let sid = Binio.read_uvarint r in
      let seq = Binio.read_uvarint r in
      R_feed { sid; seq; txn = Binio.read_txn r }
  | 3 -> R_close { sid = Binio.read_uvarint r }
  | t -> Binio.fail "unknown WAL record tag %d" t

(* ------------------------------------------------------------------ *)
(* Writing. *)

(* Cap on how many encoded bytes group commit may hold back from the
   kernel: a burst larger than this still lands in a handful of writes,
   and a [kill -9] can lose at most this much un-barriered tail. *)
let flush_threshold = 1 lsl 18

type writer = {
  fd : Unix.file_descr;
  scratch : Buffer.t;  (* record payload *)
  pending : Buffer.t;
      (* group commit: encoded len+payload+crc blocks accumulate here
         and reach the kernel in one [write] per {!flush} *)
  sync : sync;
  on_fsync : int -> unit;  (* called with the fsync's duration in ns *)
  mutable unsynced : int;
  mutable bytes : int;
  mutable closed : bool;
}

let write_buffer w buf =
  let b = Buffer.to_bytes buf in
  Binio.really_write w.fd b 0 (Bytes.length b);
  w.bytes <- w.bytes + Bytes.length b

(* One write(2) for everything queued since the last flush. *)
let flush w =
  if (not w.closed) && Buffer.length w.pending > 0 then begin
    write_buffer w w.pending;
    Buffer.clear w.pending
  end

let fsync w =
  flush w;
  let t0 = Obs.Clock.now_ns () in
  Unix.fsync w.fd;
  w.unsynced <- 0;
  w.on_fsync (Obs.Clock.now_ns () - t0)

let create ?(on_fsync = fun _ -> ()) ~path ~shard ~nshards ~gen ~sync () =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let w =
    {
      fd;
      scratch = Buffer.create 256;
      pending = Buffer.create 4096;
      sync;
      on_fsync;
      unsynced = 0;
      bytes = 0;
      closed = false;
    }
  in
  Buffer.clear w.scratch;
  Binio.add_uvarint w.scratch version;
  Binio.add_uvarint w.scratch shard;
  Binio.add_uvarint w.scratch nshards;
  Binio.add_uvarint w.scratch gen;
  let payload = Buffer.contents w.scratch in
  Buffer.add_string w.pending magic;
  Binio.add_u32le w.pending (String.length payload);
  Buffer.add_string w.pending payload;
  Binio.add_u32le w.pending (Crc32.string payload);
  (* the header always lands immediately: a WAL file without one is
     unreadable, not merely short *)
  flush w;
  if sync <> Off then fsync w;
  w

let append w record =
  if w.closed then invalid_arg "Wal.append: writer closed";
  Buffer.clear w.scratch;
  add_record w.scratch record;
  let payload = Buffer.contents w.scratch in
  let before = Buffer.length w.pending in
  Binio.add_u32le w.pending (String.length payload);
  Buffer.add_string w.pending payload;
  Binio.add_u32le w.pending (Crc32.string payload);
  let added = Buffer.length w.pending - before in
  (match w.sync with
  | Always -> fsync w
  | Batch ->
      w.unsynced <- w.unsynced + 1;
      if w.unsynced >= batch_every then fsync w
      else if Buffer.length w.pending >= flush_threshold then flush w
  | Off -> if Buffer.length w.pending >= flush_threshold then flush w);
  added

(* The ack barrier: make everything appended so far durable before a
   verdict is acknowledged (a plain group-commit flush in [Off] mode,
   already durable in [Always] mode). *)
let barrier w =
  if not w.closed then
    if w.sync = Batch && w.unsynced > 0 then fsync w else flush w

let bytes_written w = w.bytes + Buffer.length w.pending

let close w =
  if not w.closed then begin
    if w.sync <> Off && w.unsynced > 0 then fsync w else flush w;
    w.closed <- true;
    Unix.close w.fd
  end

(* ------------------------------------------------------------------ *)
(* Reading. *)

type tail =
  | Complete
  | Truncated of int  (** torn tail starting at this byte offset *)
  | Corrupt of { offset : int; reason : string }

(* Parse one length+payload+crc block at [pos].  [`Short] = torn tail. *)
let read_block src pos =
  let total = Binio.Source.length src in
  if total - pos < 4 then `Short
  else
    let len = Binio.Source.get_u32le src pos in
    if len <= 0 || len > max_record then
      `Bad (Printf.sprintf "block length %d out of range" len)
    else if total - pos < 4 + len + 4 then `Short
    else
      let payload = Binio.Source.sub_string src (pos + 4) len in
      let crc = Binio.Source.get_u32le src (pos + 4 + len) in
      if Crc32.string payload <> crc then `Bad "CRC mismatch"
      else `Block (payload, pos + 4 + len + 4)

let read_path path =
  match Binio.Source.map_file path with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | src -> (
      let total = Binio.Source.length src in
      if total < String.length magic
         || Binio.Source.sub_string src 0 (String.length magic) <> magic
      then Error (Printf.sprintf "%s: not a WAL file" path)
      else
        match read_block src (String.length magic) with
        | `Short | `Bad _ -> Error (Printf.sprintf "%s: bad WAL header" path)
        | `Block (hpayload, pos0) -> (
            match
              let r = Binio.reader hpayload in
              let h_version = Binio.read_uvarint r in
              if h_version <> version then
                Binio.fail "WAL version %d (want %d)" h_version version;
              let h_shard = Binio.read_uvarint r in
              let h_nshards = Binio.read_uvarint r in
              let h_gen = Binio.read_uvarint r in
              if not (Binio.at_end r) then Binio.fail "trailing header bytes";
              { h_version; h_shard; h_nshards; h_gen }
            with
            | exception Binio.Decode_error m ->
                Error (Printf.sprintf "%s: %s" path m)
            | header ->
                let records = ref [] in
                let rec go pos =
                  if pos >= total then Complete
                  else
                    match read_block src pos with
                    | `Short -> Truncated pos
                    | `Bad reason -> Corrupt { offset = pos; reason }
                    | `Block (payload, next) -> (
                        match
                          let r = Binio.reader payload in
                          let rec_ = read_record r in
                          if not (Binio.at_end r) then
                            Binio.fail "trailing record bytes";
                          rec_
                        with
                        | exception Binio.Decode_error m ->
                            Corrupt { offset = pos; reason = m }
                        | rec_ ->
                            records := rec_ :: !records;
                            go next)
                in
                let tail = go pos0 in
                Ok (header, List.rev !records, tail)))
