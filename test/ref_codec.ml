(* Reference text codec the tests compare [Codec] against: the format's
   first writer and parser, kept verbatim — lines split into lists,
   fields split on ' ', ops read by [Scanf] and printed through
   [Format].  The one behaviour [Codec] deliberately changed is that
   [Scanf] ignores anything after an op's last integer, so
   ["R(x1)=5junk"] parses here but is an error there. *)

let op_to_string op = Format.asprintf "%a" Op.pp op

let op_of_string s =
  try Scanf.sscanf s "R(x%d)=%d" (fun k v -> Some (Op.Read (k, v)))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> (
    try Scanf.sscanf s "W(x%d):=%d" (fun k v -> Some (Op.Write (k, v)))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)

(* Bytes of [s] an op token's [Scanf] read consumed, when it parsed:
   [Some n] with [n < String.length s] marks a trailing suffix. *)
let op_consumed s =
  try Scanf.sscanf s "R(x%d)=%d%n" (fun _ _ n -> Some n)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> (
    try Scanf.sscanf s "W(x%d):=%d%n" (fun _ _ n -> Some n)
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)

let to_string (h : History.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "mtc-history v1\n";
  Buffer.add_string buf (Printf.sprintf "keys %d\n" h.num_keys);
  Buffer.add_string buf (Printf.sprintf "sessions %d\n" h.num_sessions);
  Array.iter
    (fun (t : Txn.t) ->
      if t.id <> History.init_id then begin
        Buffer.add_string buf
          (Printf.sprintf "txn %d %d %s %d %d" t.id t.session
             (match t.status with Txn.Committed -> "C" | Txn.Aborted -> "A")
             t.start_ts t.commit_ts);
        Array.iter
          (fun op ->
            Buffer.add_char buf ' ';
            Buffer.add_string buf (op_to_string op))
          t.ops;
        Buffer.add_char buf '\n'
      end)
    h.txns;
  Buffer.contents buf

(* Parsing is total: any malformed input — truncated op, unknown status,
   duplicate or out-of-order transaction id, key out of range — yields
   [Error] with the 1-based line number of the offending line in the
   original input (comment and blank lines count), never an exception. *)

exception Bad of string

let of_string s =
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let faill line fmt =
    Printf.ksprintf (fun m -> raise (Bad (Printf.sprintf "line %d: %s" line m))) fmt
  in
  (* (original line number, trimmed content), comments/blanks dropped *)
  let lines =
    String.split_on_char '\n' s
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) ->
           l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  let parse_kv name (ln, line) =
    match String.split_on_char ' ' line with
    | [ k; v ] when k = name -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> faill ln "bad %s count %S" name v)
    | _ -> faill ln "expected %S header, got %S" (name ^ " <n>") line
  in
  let parse_txn (ln, line) =
    match String.split_on_char ' ' line with
    | "txn" :: id :: session :: status :: start :: commit :: ops ->
        let int what s =
          match int_of_string_opt s with
          | Some n -> n
          | None -> faill ln "bad %s %S" what s
        in
        let id = int "txn id" id in
        let session = int "session" session in
        let status =
          match status with
          | "C" -> Txn.Committed
          | "A" -> Txn.Aborted
          | other -> faill ln "bad status %S (want C or A)" other
        in
        let start_ts = int "start_ts" start in
        let commit_ts = int "commit_ts" commit in
        let ops =
          List.map
            (fun op_s ->
              match op_of_string op_s with
              | Some op -> op
              | None -> faill ln "bad operation %S" op_s)
            ops
        in
        (ln, Txn.make ~id ~session ~status ~start_ts ~commit_ts ops)
    | _ -> faill ln "unparseable txn line %S" line
  in
  try
    match lines with
    | (_, header) :: rest when header = "mtc-history v1" -> (
        match rest with
        | keys_line :: sessions_line :: txn_lines ->
            let num_keys = parse_kv "keys" keys_line in
            let num_sessions = parse_kv "sessions" sessions_line in
            let txns = List.map parse_txn txn_lines in
            (* Ids must be the dense sequence 1..n in order (the implicit
               initial transaction is id 0): diagnose duplicates and gaps
               with their line before History.make would. *)
            List.iteri
              (fun i (ln, (t : Txn.t)) ->
                if t.Txn.id <> i + 1 then
                  if
                    List.exists
                      (fun (_, (u : Txn.t)) -> u.Txn.id = t.Txn.id)
                      (List.filteri (fun j _ -> j < i) txns)
                  then faill ln "duplicate txn id %d" t.Txn.id
                  else
                    faill ln "txn id %d out of order (expected %d)" t.Txn.id
                      (i + 1);
                if t.Txn.session < 1 || t.Txn.session > num_sessions then
                  faill ln "session %d out of [1,%d]" t.Txn.session num_sessions;
                Array.iter
                  (fun op ->
                    let k = Op.key op in
                    if k < 0 || k >= num_keys then
                      faill ln "key %d out of [0,%d)" k num_keys)
                  t.Txn.ops)
              txns;
            (* all History.make preconditions were just checked per line;
               keep the guard anyway so parsing stays total *)
            (try Ok (History.make ~num_keys ~num_sessions (List.map snd txns))
             with Invalid_argument m -> fail "%s" m)
        | _ -> fail "truncated header (want magic, keys, sessions)")
    | (ln, _) :: _ -> faill ln "missing magic line 'mtc-history v1'"
    | [] -> fail "empty input"
  with Bad m -> Error m

