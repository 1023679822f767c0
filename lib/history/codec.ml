let add_history buf (h : History.t) =
  Buffer.add_string buf "mtc-history v1\nkeys ";
  Op.add_int buf h.num_keys;
  Buffer.add_string buf "\nsessions ";
  Op.add_int buf h.num_sessions;
  Buffer.add_char buf '\n';
  Array.iter
    (fun (t : Txn.t) ->
      if t.id <> History.init_id then begin
        Buffer.add_string buf "txn ";
        Op.add_int buf t.id;
        Buffer.add_char buf ' ';
        Op.add_int buf t.session;
        Buffer.add_string buf
          (match t.status with Txn.Committed -> " C " | Txn.Aborted -> " A ");
        Op.add_int buf t.start_ts;
        Buffer.add_char buf ' ';
        Op.add_int buf t.commit_ts;
        for i = 0 to Array.length t.ops - 1 do
          Buffer.add_char buf ' ';
          Op.add_to_buffer buf t.ops.(i)
        done;
        Buffer.add_char buf '\n'
      end)
    h.txns

(* A txn line with four mini-transaction ops is about 80 bytes. *)
let text_buffer (h : History.t) =
  let buf = Buffer.create (Stdlib.max 4096 (80 * Array.length h.txns)) in
  add_history buf h;
  buf

let to_string h = Buffer.contents (text_buffer h)

(* --- text parsing ---

   One cursor pass over the input.  Each line is located by its '\n',
   trimmed with [String.trim]'s notion of whitespace and read field by
   field in place: a plain decimal field is summed where it lies (other
   integer spellings go through [int_of_string_opt]), each op field goes
   through {!Op.parse}, the one op grammar, and the line's ops collect in
   one reused buffer from which each transaction's op array is cut.
   Nothing is split into lists of lines or tokens.

   Parsing is total: any malformed input — truncated op, unknown status,
   duplicate or out-of-order transaction id, key out of range — yields
   [Error] with the 1-based line number of the offending line in the
   original input (comment and blank lines count), never an exception.

   Error precedence (fixed by the format's first, list-based parser):
   a header error — empty input, missing magic, truncated header, then
   the keys line, then the sessions line — comes first; then the first
   syntax error of any txn line; then the first id / session / key error
   in line order.  A syntax error therefore beats a semantic error on an
   earlier line, so the pass records the first semantic error and keeps
   reading. *)

exception Bad of string

let sp_parse = Obs.Trace.intern "parse"

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let faill line fmt =
  Printf.ksprintf (fun m -> raise (Bad (Printf.sprintf "line %d: %s" line m))) fmt

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* Index of the first ' ' in [s.[i..j)], or [j]. *)
let field_end s i j =
  let k = ref i in
  while !k < j && String.unsafe_get s !k <> ' ' do
    incr k
  done;
  !k

let span_is s i j lit =
  j - i = String.length lit
  &&
  let k = ref 0 in
  while !k < j - i && s.[i + !k] = lit.[!k] do
    incr k
  done;
  !k = j - i

(* A header or txn field [s.[i..j)]; a non-integer is "line [ln]: bad
   [what]".  A plain decimal — an optional '-' and 1 to 18 digits, on
   which [int_of_string_opt] returns exactly this value — is read in
   place. *)
let int_field ln what s i j =
  let d = if i < j && String.unsafe_get s i = '-' then i + 1 else i in
  let k = ref d and acc = ref 0 in
  while
    !k < j
    &&
    let ch = String.unsafe_get s !k in
    ch >= '0' && ch <= '9'
  do
    acc := (!acc * 10) + (Char.code (String.unsafe_get s !k) - 48);
    incr k
  done;
  if !k = j && j > d && j - d <= 18 then if d > i then - !acc else !acc
  else
    let tok = String.sub s i (j - i) in
    match int_of_string_opt tok with
    | Some n -> n
    | None -> faill ln "bad %s %S" what tok

(* A ["keys <n>"] / ["sessions <n>"] header line [s.[a..b)]: exactly
   two space-separated fields, the first being [name]. *)
let header_count ln name s a b =
  let e = field_end s a b in
  if e = b || field_end s (e + 1) b < b || not (span_is s a e name) then
    faill ln "expected %S header, got %S" (name ^ " <n>")
      (String.sub s a (b - a));
  int_field ln (name ^ " count") s (e + 1) b

let unparseable ln s a b =
  faill ln "unparseable txn line %S" (String.sub s a (b - a))

let magic = "mtc-history v1"

(* Header progress of the pass. *)
type stage = Want_magic | Want_keys | Want_sessions | Txns

let of_string s = Obs.Trace.with_span sp_parse @@ fun () ->
  let n = String.length s in
  let stage = ref Want_magic in
  let keys_at = ref (0, 0, 0) (* line, first byte, end byte *) in
  let num_keys = ref 0 and num_sessions = ref 0 in
  let txns = ref (Array.make 1024 (History.init_txn ~num_keys:0)) in
  let count = ref 0 in
  let semantic = ref None in
  let note_semantic ln fmt =
    Printf.ksprintf
      (fun m ->
        if !semantic = None then
          semantic := Some (Printf.sprintf "line %d: %s" ln m))
      fmt
  in
  (* The current line's ops, collected before its array is cut. *)
  let ops_buf = ref (Array.make 16 (Op.Read (0, 0))) in
  let nops = ref 0 in
  let push_op op =
    if !nops = Array.length !ops_buf then begin
      let bigger = Array.make (2 * !nops) (Op.Read (0, 0)) in
      Array.blit !ops_buf 0 bigger 0 !nops;
      ops_buf := bigger
    end;
    !ops_buf.(!nops) <- op;
    incr nops
  in
  (* A transaction read off line [ln]: the id / session / key checks
     (first failure kept, reading goes on), then append. *)
  let add_txn ln id session status start_ts commit_ts =
    let ops = if !nops = 0 then [||] else Array.sub !ops_buf 0 !nops in
    (* Ids must be the dense sequence 1..n in order (the implicit initial
       transaction is id 0): every earlier line passed this check, so an
       id in [1, count] is a duplicate. *)
    if !semantic = None then begin
      let pos = !count + 1 in
      if id <> pos then
        if id >= 1 && id < pos then note_semantic ln "duplicate txn id %d" id
        else note_semantic ln "txn id %d out of order (expected %d)" id pos
      else if session < 1 || session > !num_sessions then
        note_semantic ln "session %d out of [1,%d]" session !num_sessions
      else
        let i = ref 0 in
        while !semantic = None && !i < Array.length ops do
          let k = Op.key ops.(!i) in
          if k < 0 || k >= !num_keys then
            note_semantic ln "key %d out of [0,%d)" k !num_keys;
          incr i
        done
    end;
    if !count + 1 >= Array.length !txns then begin
      let bigger = Array.make (2 * Array.length !txns) !txns.(0) in
      Array.blit !txns 0 bigger 0 (Array.length !txns);
      txns := bigger
    end;
    incr count;
    !txns.(!count) <- { Txn.id; session; ops; status; start_ts; commit_ts }
  in
  (* One trimmed txn line [s.[a..b)]: the six fixed fields, then one op
     per remaining space-separated field (doubled spaces make empty
     ops). *)
  let txn_line ln a b =
    let e0 = field_end s a b in
    if e0 = b || not (span_is s a e0 "txn") then unparseable ln s a b;
    let e1 = field_end s (e0 + 1) b in
    if e1 = b then unparseable ln s a b;
    let e2 = field_end s (e1 + 1) b in
    if e2 = b then unparseable ln s a b;
    let e3 = field_end s (e2 + 1) b in
    if e3 = b then unparseable ln s a b;
    let e4 = field_end s (e3 + 1) b in
    if e4 = b then unparseable ln s a b;
    let e5 = field_end s (e4 + 1) b in
    let id = int_field ln "txn id" s (e0 + 1) e1 in
    let session = int_field ln "session" s (e1 + 1) e2 in
    let status =
      if e3 - e2 = 2 && s.[e2 + 1] = 'C' then Txn.Committed
      else if e3 - e2 = 2 && s.[e2 + 1] = 'A' then Txn.Aborted
      else
        faill ln "bad status %S (want C or A)"
          (String.sub s (e2 + 1) (e3 - e2 - 1))
    in
    let start_ts = int_field ln "start_ts" s (e3 + 1) e4 in
    let commit_ts = int_field ln "commit_ts" s (e4 + 1) e5 in
    nops := 0;
    let p = ref e5 in
    while !p < b do
      let q = field_end s (!p + 1) b in
      (match Op.parse s (!p + 1) q with
      | op -> push_op op
      | exception Op.Malformed ->
          faill ln "bad operation %S" (String.sub s (!p + 1) (q - !p - 1)));
      p := q
    done;
    add_txn ln id session status start_ts commit_ts
  in
  let line ln a b =
    match !stage with
    | Want_magic ->
        if not (span_is s a b magic) then
          faill ln "missing magic line 'mtc-history v1'";
        stage := Want_keys
    | Want_keys ->
        keys_at := (ln, a, b);
        stage := Want_sessions
    | Want_sessions ->
        let kln, ka, kb = !keys_at in
        num_keys := header_count kln "keys" s ka kb;
        num_sessions := header_count ln "sessions" s a b;
        stage := Txns
    | Txns -> txn_line ln a b
  in
  try
    let start = ref 0 and ln = ref 1 in
    while !start <= n do
      let eol = ref !start in
      while !eol < n && String.unsafe_get s !eol <> '\n' do
        incr eol
      done;
      let a = ref !start and b = ref !eol in
      while !a < !b && is_space (String.unsafe_get s !a) do
        incr a
      done;
      while !b > !a && is_space (String.unsafe_get s (!b - 1)) do
        decr b
      done;
      if !a < !b && s.[!a] <> '#' then line !ln !a !b;
      start := !eol + 1;
      incr ln
    done;
    match !stage with
    | Want_magic -> fail "empty input"
    | Want_keys | Want_sessions ->
        fail "truncated header (want magic, keys, sessions)"
    | Txns -> (
        match !semantic with
        | Some m -> Error m
        | None -> (
            (* every History.make precondition was just checked per
               line; keep the guard anyway so parsing stays total *)
            try
              let all = Array.sub !txns 0 (!count + 1) in
              all.(0) <- History.init_txn ~num_keys:!num_keys;
              Ok
                (History.of_array ~num_keys:!num_keys
                   ~num_sessions:!num_sessions all)
            with Invalid_argument m -> Error m))
  with Bad m -> Error m

let save path h =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc (text_buffer h))

(* --- binary format ---------------------------------------------------

   Layout:
     "mtcbin1\n"                                magic, 8 bytes
     uvarint num_keys, num_sessions, block_size
     txn records (Binio.add_txn), ids 1..n in order,
       grouped into blocks of block_size txns
     footer at byte offset FOFF:
       uvarint num_txns, uvarint num_blocks,
       one uvarint absolute byte offset per block
     8-byte LE FOFF, then "mtcE"                trailer, 12 bytes

   The trailer is fixed-width so a loader can find the footer without
   scanning; the per-block offsets let domains decode disjoint txn
   ranges concurrently from one shared mmap.  The initial transaction is
   implicit, exactly as in the text format. *)

let bin_magic = "mtcbin1\n"
let bin_trailer_magic = "mtcE"
let default_block_size = 4096

module Bin_writer = struct
  type t = {
    oc : out_channel;
    buf : Buffer.t;
    block_size : int;
    num_keys : int;
    num_sessions : int;
    offsets : Int_vec.t;
    mutable count : int;  (* transactions written so far *)
    mutable flushed : int;  (* bytes already on disk *)
    mutable closed : bool;
  }

  let pos t = t.flushed + Buffer.length t.buf

  let flush t =
    Buffer.output_buffer t.oc t.buf;
    t.flushed <- t.flushed + Buffer.length t.buf;
    Buffer.clear t.buf

  let create ?(block_size = default_block_size) ~num_keys ~num_sessions path =
    if block_size < 1 then
      invalid_arg "Codec.Bin_writer.create: block_size must be >= 1";
    let oc = open_out_bin path in
    let buf = Buffer.create 65536 in
    Buffer.add_string buf bin_magic;
    Binio.add_uvarint buf num_keys;
    Binio.add_uvarint buf num_sessions;
    Binio.add_uvarint buf block_size;
    {
      oc;
      buf;
      block_size;
      num_keys;
      num_sessions;
      offsets = Int_vec.create 64;
      count = 0;
      flushed = 0;
      closed = false;
    }

  let add t (txn : Txn.t) =
    if t.closed then invalid_arg "Codec.Bin_writer.add: writer is closed";
    if txn.id <> t.count + 1 then
      invalid_arg
        (Printf.sprintf "Codec.Bin_writer.add: txn id %d, expected %d" txn.id
           (t.count + 1));
    if txn.session < 1 || txn.session > t.num_sessions then
      invalid_arg
        (Printf.sprintf "Codec.Bin_writer.add: T%d session %d out of [1,%d]"
           txn.id txn.session t.num_sessions);
    if txn.start_ts > txn.commit_ts then
      invalid_arg
        (Printf.sprintf
           "Codec.Bin_writer.add: T%d start_ts %d after commit_ts %d" txn.id
           txn.start_ts txn.commit_ts);
    Array.iter
      (fun op ->
        let k = Op.key op in
        if k < 0 || k >= t.num_keys then
          invalid_arg
            (Printf.sprintf "Codec.Bin_writer.add: T%d key %d out of [0,%d)"
               txn.id k t.num_keys))
      txn.ops;
    if t.count mod t.block_size = 0 then Int_vec.push t.offsets (pos t);
    Binio.add_txn t.buf txn;
    t.count <- t.count + 1;
    if Buffer.length t.buf >= 1 lsl 20 then flush t

  let close t =
    if not t.closed then begin
      t.closed <- true;
      let foff = pos t in
      Binio.add_uvarint t.buf t.count;
      Binio.add_uvarint t.buf (Int_vec.length t.offsets);
      for b = 0 to Int_vec.length t.offsets - 1 do
        Binio.add_uvarint t.buf (Int_vec.get t.offsets b)
      done;
      Buffer.add_int64_le t.buf (Int64.of_int foff);
      Buffer.add_string t.buf bin_trailer_magic;
      flush t;
      close_out t.oc
    end
end

let save_bin ?block_size path (h : History.t) =
  let w =
    Bin_writer.create ?block_size ~num_keys:h.num_keys
      ~num_sessions:h.num_sessions path
  in
  Fun.protect
    ~finally:(fun () -> Bin_writer.close w)
    (fun () ->
      Array.iter
        (fun (t : Txn.t) -> if t.id <> History.init_id then Bin_writer.add w t)
        h.txns)

let sp_parse_bin = Obs.Trace.intern "parse/bin"

let decode_bin ?pool src =
  let r = Binio.reader_of_source src in
  let total = Binio.Source.length src in
  let m = Binio.read_bytes r (String.length bin_magic) in
  if m <> bin_magic then Binio.fail "bad binary magic";
  let num_keys = Binio.read_uvarint r in
  let num_sessions = Binio.read_uvarint r in
  let block_size = Binio.read_uvarint r in
  if num_keys < 1 || num_sessions < 0 || block_size < 1 then
    Binio.fail "implausible binary header (%d keys, %d sessions, block %d)"
      num_keys num_sessions block_size;
  if total < Binio.pos r + 12 then Binio.fail "missing binary trailer";
  Binio.seek r (total - 12);
  let foff = ref 0 in
  for i = 0 to 7 do
    foff := !foff lor (Binio.read_byte r lsl (8 * i))
  done;
  if Binio.read_bytes r 4 <> bin_trailer_magic then
    Binio.fail "bad binary trailer magic";
  if !foff < 0 || !foff > total - 12 then
    Binio.fail "footer offset %d out of file" !foff;
  Binio.seek r !foff;
  let num_txns = Binio.read_uvarint r in
  let num_blocks = Binio.read_uvarint r in
  if
    num_txns < 0 || num_blocks < 0
    || num_blocks <> (num_txns + block_size - 1) / block_size
  then
    Binio.fail "footer disagrees with itself (%d txns, %d blocks)" num_txns
      num_blocks;
  let offsets = Array.init num_blocks (fun _ -> Binio.read_uvarint r) in
  Array.iter
    (fun o -> if o < 0 || o > !foff then Binio.fail "block offset %d out of file" o)
    offsets;
  let txns = Array.make (num_txns + 1) (History.init_txn ~num_keys) in
  (* Each block decodes its own txn range from its own cursor over the
     shared map; ids are dense and block-aligned, so every write lands
     in a distinct slot.  A decode failure propagates per the pool's
     lowest-index rule — the same block that would fail sequentially. *)
  Pool.tasks pool
    (List.init num_blocks (fun b () ->
         let br = Binio.reader_of_source ~pos:offsets.(b) src in
         let first = (b * block_size) + 1 in
         let last = Stdlib.min num_txns (first + block_size - 1) in
         for id = first to last do
           let t = Binio.read_txn br in
           if t.Txn.id <> id then
             Binio.fail "txn id %d where %d expected (block %d)" t.Txn.id id b;
           txns.(id) <- t
         done));
  (num_keys, num_sessions, txns)

let load_bin ?pool path =
  Obs.Trace.with_span sp_parse_bin @@ fun () ->
  try
    let src = Binio.Source.map_file path in
    let num_keys, num_sessions, txns = decode_bin ?pool src in
    try Ok (History.of_array ?pool ~num_keys ~num_sessions txns)
    with Invalid_argument m -> Error m
  with
  | Binio.Decode_error m -> Error (Printf.sprintf "%s: %s" path m)
  | Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | Sys_error m -> Error m

type format = Auto | Text | Bin

let format_of_string = function
  | "auto" -> Some Auto
  | "text" -> Some Text
  | "bin" -> Some Bin
  | _ -> None

let sniff_bin path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let buf = Bytes.create (String.length bin_magic) in
        match In_channel.really_input ic buf 0 (Bytes.length buf) with
        | Some () -> Bytes.to_string buf = bin_magic
        | None -> false)
  with Sys_error _ -> false

let load_text path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string (In_channel.input_all ic))
  with Sys_error m -> Error m

let load ?(format = Auto) ?pool path =
  match format with
  | Text -> load_text path
  | Bin -> load_bin ?pool path
  | Auto -> if sniff_bin path then load_bin ?pool path else load_text path
