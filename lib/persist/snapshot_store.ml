(* Versioned per-shard snapshots of live checker sessions.

   File layout:

     magic "mtcsnp1\n" (8 bytes) | payload | u32le CRC-32(payload)

   payload (Binio varints):

     version=2, shard, nshards, gen, next_sid, entry count,
     then per entry ({!Session_state.t}): sid, params
     ({!Session_state.add_params}), last_seq, state byte — 0 = live
     (an {!Online.encode} blob follows), 1 = poisoned (anomaly option +
     rendered counterexample strings; a poisoned session's graph is
     dead weight, its rendered verdict is all it will ever produce
     again).

   Writes go to [path ^ ".tmp"], are fsynced, then renamed over [path]
   and the directory is fsynced — a crash leaves either the old
   snapshot or the new one, never a torn file that passes its CRC. *)

let magic = "mtcsnp1\n"
let version = 2

type info = {
  i_shard : int;
  i_nshards : int;
  i_gen : int;
  i_next_sid : int;
  i_entries : Session_state.t list;
}

let add_entry buf (e : Session_state.t) =
  Binio.add_uvarint buf e.sid;
  Session_state.add_params buf e.params;
  Binio.add_uvarint buf e.last_seq;
  match e.state with
  | Live online ->
      Buffer.add_char buf '\000';
      Online.encode buf online
  | Poisoned { anomaly; rendered } ->
      Buffer.add_char buf '\001';
      (match anomaly with
      | None -> Buffer.add_char buf '\000'
      | Some a ->
          Buffer.add_char buf '\001';
          Binio.add_string buf a);
      Binio.add_string buf rendered

let read_entry r =
  let sid = Binio.read_uvarint r in
  let params = Session_state.read_params r in
  let last_seq = Binio.read_uvarint r in
  let state : Session_state.state =
    match Binio.read_byte r with
    | 0 -> Live (Online.decode r)
    | 1 ->
        let anomaly =
          match Binio.read_byte r with
          | 0 -> None
          | 1 -> Some (Binio.read_string r)
          | b -> Binio.fail "bad anomaly presence byte %d" b
        in
        Poisoned { anomaly; rendered = Binio.read_string r }
    | b -> Binio.fail "unknown session state byte %d" b
  in
  { Session_state.sid; params; last_seq; state }

let write ~path ~shard ~nshards ~gen ~next_sid entries =
  let buf = Buffer.create 4096 in
  Binio.add_uvarint buf version;
  Binio.add_uvarint buf shard;
  Binio.add_uvarint buf nshards;
  Binio.add_uvarint buf gen;
  Binio.add_uvarint buf next_sid;
  Binio.add_uvarint buf (List.length entries);
  List.iter (add_entry buf) entries;
  let payload = Buffer.contents buf in
  let out = Buffer.create (String.length payload + 16) in
  Buffer.add_string out magic;
  Buffer.add_string out payload;
  Binio.add_u32le out (Crc32.string payload);
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Buffer.to_bytes out in
      Binio.really_write fd b 0 (Bytes.length b);
      Unix.fsync fd);
  Unix.rename tmp path;
  Binio.fsync_dir (Filename.dirname path)

let read path =
  match Binio.Source.map_file path with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | src -> (
      let total = Binio.Source.length src in
      let mlen = String.length magic in
      if total < mlen + 4 || Binio.Source.sub_string src 0 mlen <> magic then
        Error (Printf.sprintf "%s: not a snapshot file" path)
      else
        let plen = total - mlen - 4 in
        let payload = Binio.Source.sub_string src mlen plen in
        if Crc32.string payload <> Binio.Source.get_u32le src (mlen + plen)
        then
          Error (Printf.sprintf "%s: snapshot CRC mismatch" path)
        else
          match
            let r = Binio.reader payload in
            let v = Binio.read_uvarint r in
            if v <> version then
              Binio.fail "snapshot version %d (this build reads %d)" v version;
            let i_shard = Binio.read_uvarint r in
            let i_nshards = Binio.read_uvarint r in
            let i_gen = Binio.read_uvarint r in
            let i_next_sid = Binio.read_uvarint r in
            let n = Binio.read_uvarint r in
            if n < 0 || n > Binio.remaining r then
              Binio.fail "snapshot entry count %d overruns input" n;
            let i_entries = List.init n (fun _ -> read_entry r) in
            if not (Binio.at_end r) then
              Binio.fail "%d trailing snapshot bytes" (Binio.remaining r);
            { i_shard; i_nshards; i_gen; i_next_sid; i_entries }
          with
          | info -> Ok info
          | exception Binio.Decode_error m ->
              Error (Printf.sprintf "%s: %s" path m))
