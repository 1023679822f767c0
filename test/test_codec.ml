(* Differential tests of the one-pass text codec against the format's
   first parser and writer (Ref_codec), and of the flat unique-values and
   divergence screens against their Hashtbl versions (Ref_screens). *)

let checkb = Alcotest.check Alcotest.bool
let qtest = QCheck_alcotest.to_alcotest

(* --- inputs --- *)

let engine_history (seed, keys, txns, sessions, level, fault) =
  let spec =
    Mt_gen.generate
      { Mt_gen.num_sessions = sessions; num_txns = txns; num_keys = keys;
        dist = Distribution.Uniform; seed }
  in
  let db = { Db.level; fault; num_keys = keys; seed } in
  (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ())
    .Scheduler.history

let engine_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* keys = int_range 1 12 in
    let* txns = int_range 10 120 in
    let* sessions = int_range 1 6 in
    let* level = oneofl [ Isolation.Snapshot; Isolation.Serializable ] in
    let* fault =
      oneofl
        [ Fault.No_fault; Fault.Lost_update 0.15; Fault.Aborted_read 0.1;
          Fault.Write_skew 0.1 ]
    in
    return (seed, keys, txns, sessions, level, fault))

let print_engine (seed, keys, txns, sessions, level, fault) =
  Printf.sprintf "seed=%d keys=%d txns=%d sessions=%d level=%s fault=%s" seed
    keys txns sessions (Isolation.name level) (Fault.name fault)

(* Hand-built histories with extreme integers everywhere the format
   prints one: negative and min/max timestamps and values. *)
let extreme_history_gen =
  QCheck2.Gen.(
    let wide =
      oneof
        [ int_range (-5) 5; oneofl [ min_int; max_int; min_int + 1; -1; 0 ];
          int ]
    in
    let* keys = int_range 1 4 in
    let* sessions = int_range 1 3 in
    let* n = int_range 0 8 in
    let* txns =
      flatten_l
        (List.init n (fun i ->
             let* session = int_range 1 sessions in
             let* aborted = bool in
             let* start_ts = wide in
             let* commit_ts = wide in
             let* ops =
               list_size (int_range 0 4)
                 (let* k = int_range 0 (keys - 1) in
                  let* v = wide in
                  let* w = bool in
                  return (if w then Op.Write (k, v) else Op.Read (k, v)))
             in
             return
               (Txn.make ~id:(i + 1) ~session
                  ~status:(if aborted then Txn.Aborted else Txn.Committed)
                  ~start_ts ~commit_ts ops)))
    in
    return (History.make ~num_keys:keys ~num_sessions:sessions txns))

(* --- the text mutations --- *)

(* The same history spelled differently — CRLF line ends, comment and
   blank lines, leading and trailing whitespace — and, for three
   quarters of the seeds, damaged: doubled spaces, glued op tokens (a
   missing space, or a junk suffix), with byte flips and a cut as in
   [prop_codec_total] for one quarter, and only glued op tokens for
   another. *)
let mutate text seed =
  let rnd = Random.State.make [| seed |] in
  let p k = Random.State.int rnd 100 < k in
  let pick l = List.nth l (Random.State.int rnd (List.length l)) in
  let damage = Random.State.int rnd 4 in
  let blanks = [ " "; "\t"; "\r"; "\012"; "  \t " ] in
  let fields l = List.length (String.split_on_char ' ' l) in
  let line l =
    let l =
      if damage = 0 then l
      else if damage = 3 then
        (* only op tokens glued or suffixed: the reference still reads
           the history, the codec must not *)
        if fields l >= 8 && p 10 then
          let i = String.rindex l ' ' in
          String.sub l 0 i ^ String.sub l (i + 1) (String.length l - i - 1)
        else if fields l >= 7 && p 5 then l ^ pick [ "junk"; ")"; "x"; "W" ]
        else l
      else if p 3 then String.concat "  " (String.split_on_char ' ' l)
      else if p 3 then
        match String.rindex_opt l ' ' with
        | Some i -> String.sub l 0 i ^ String.sub l (i + 1) (String.length l - i - 1)
        | None -> l
      else if p 2 then l ^ pick [ "junk"; ")"; "0"; "_"; "x" ]
      else l
    in
    let l = if p 10 then pick blanks ^ l else l in
    let l = if p 10 then l ^ pick blanks else l in
    let extra =
      (if p 6 then [ pick [ "# a comment"; "  # indented comment"; "#" ] ] else [])
      @ if p 6 then [ pick ("" :: blanks) ] else []
    in
    extra @ [ l ]
  in
  let lines = List.concat_map line (String.split_on_char '\n' text) in
  let eol = if p 30 then "\r\n" else "\n" in
  let b = Bytes.of_string (String.concat eol lines) in
  if damage = 2 then
    for _ = 1 to 1 + Random.State.int rnd 4 do
      if Bytes.length b > 0 then
        Bytes.set b
          (Random.State.int rnd (Bytes.length b))
          (Char.chr (Random.State.int rnd 256))
    done;
  let s = Bytes.to_string b in
  if damage = 2 && p 50 then
    String.sub s 0 (Random.State.int rnd (String.length s + 1))
  else s

(* --- the parser property --- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* "line N: rest" -> Some (N, rest) *)
let split_line_error e =
  match String.index_opt e ':' with
  | Some i when starts_with ~prefix:"line " e && i + 2 <= String.length e -> (
      match int_of_string_opt (String.sub e 5 (i - 5)) with
      | Some n -> Some (n, String.sub e (i + 2) (String.length e - i - 2))
      | None -> None)
  | Some _ | None -> None

let syntax_prefixes =
  [ "unparseable txn line"; "bad txn id"; "bad session \""; "bad status";
    "bad start_ts"; "bad commit_ts"; "bad operation" ]

(* An op token Scanf reads with bytes left over. *)
let has_suffix tok =
  match Ref_codec.op_consumed tok with
  | Some n -> n < String.length tok
  | None -> false

(* Where the two parsers may differ: the library rejects an op token
   with a trailing suffix that the reference read as a shorter op.  Its
   error must name such a token on the line it names, and the reference
   must not have had an error that takes precedence — a header error, or
   a syntax error on an earlier line or earlier on the same line. *)
let suffix_rejection s reference msg =
  match split_line_error msg with
  | None -> false
  | Some (ln, rest) -> (
      match Scanf.sscanf rest "bad operation %S%!" Fun.id with
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> false
      | tok -> (
          let physical = List.nth (String.split_on_char '\n' s) (ln - 1) in
          has_suffix tok
          && List.mem tok (String.split_on_char ' ' (String.trim physical))
          &&
          match reference with
          | Ok _ -> true
          | Error e -> (
              match split_line_error e with
              | None -> false (* empty input, truncated header *)
              | Some (l, r) ->
                  let syntax =
                    List.exists (fun prefix -> starts_with ~prefix r)
                      syntax_prefixes
                  in
                  let header =
                    List.exists (fun prefix -> starts_with ~prefix r)
                      [ "missing magic"; "expected"; "bad keys count";
                        "bad sessions count" ]
                  in
                  (not header)
                  && ((not syntax) || l > ln
                     || (l = ln && starts_with ~prefix:"bad operation" r)))))

(* The first physical line holding an op token with a suffix, among
   the lines that start with a "txn" field. *)
let first_suffix_line s =
  let rec go ln = function
    | [] -> None
    | l :: rest -> (
        match String.split_on_char ' ' (String.trim l) with
        | "txn" :: _ :: _ :: _ :: _ :: _ :: ops when List.exists has_suffix ops
          ->
            Some ln
        | _ -> go (ln + 1) rest)
  in
  go 1 (String.split_on_char '\n' s)

(* Equal results are only right where no suffixed op token should have
   been reported first: none anywhere for a verdict or a semantic
   error, none on an earlier line for a syntax error. *)
let no_missed_suffix s = function
  | Ok _ -> first_suffix_line s = None
  | Error e -> (
      match (split_line_error e, first_suffix_line s) with
      | _, None | None, _ -> true
      | Some (l, r), Some sl ->
          let header =
            List.exists (fun prefix -> starts_with ~prefix r)
              [ "missing magic"; "expected"; "bad keys count";
                "bad sessions count" ]
          in
          let syntax =
            List.exists (fun prefix -> starts_with ~prefix r) syntax_prefixes
          in
          header || (syntax && l <= sl))

let agree s =
  match (Ref_codec.of_string s, Codec.of_string s) with
  | Ok a, Ok b -> a = b && no_missed_suffix s (Ok ())
  | Error a, Error b when a = b -> no_missed_suffix s (Error a)
  | reference, Error m -> suffix_rejection s reference m
  | Error _, Ok _ -> false

let prop_parse_engine =
  QCheck2.Test.make ~name:"codec parse agrees with reference on engine histories"
    ~count:120
    ~print:(fun (c, seed) -> Printf.sprintf "%s mutation=%d" (print_engine c) seed)
    QCheck2.Gen.(pair engine_gen (int_range 0 1_000_000))
    (fun (c, seed) ->
      let text = Codec.to_string (engine_history c) in
      agree text && agree (mutate text seed))

let prop_parse_extreme =
  QCheck2.Test.make ~name:"codec parse agrees with reference on extreme ints"
    ~count:200
    QCheck2.Gen.(pair extreme_history_gen (int_range 0 1_000_000))
    (fun (h, seed) ->
      let text = Ref_codec.to_string h in
      agree text
      && (match Codec.of_string text with Ok h' -> h' = h | Error _ -> false)
      && agree (mutate text seed))

(* Header and field damage the line mutations rarely reach. *)
let test_parse_edge_inputs () =
  List.iter
    (fun s -> checkb (Printf.sprintf "agree on %S" s) true (agree s))
    [
      ""; "\n\n"; "# only a comment\n"; "mtc-history v1"; "mtc-history v1\n";
      "mtc-history v1\nkeys 2\n"; "mtc-history v1\nkeys x\nsessions 1\n";
      "mtc-history v1\nkeys 2\nsessions 1";
      "mtc-history v1\nkeys  2\nsessions 1\n";
      "mtc-history v1\nkeys\t2\nsessions 1\n";
      "mtc-history v1\nkeys 0x2\nsessions +1\n";
      "mtc-history v1\nkeys -1\nsessions 1\n";
      "mtc-history v1\nkeys -1\nsessions 1\ntxn 1 1 C 1 1\n";
      "mtc-history v1\nkeys 2\nsessions -1\n";
      "mtc-history v1\nsessions 1\nkeys 2\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 \n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1  R(x0)=0\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 0x1 +1 C 1_0 -0 R(x+1)=0_0\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 R(x1_)=-0\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 99999999999999999999 1\n";
      (* 19 digits just past the int range, which an in-place sum would
         wrap *)
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 4611686018427387904\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C -4611686018427387905 1\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 9999999999999999999 1 C 1 1\n";
      "mtc-history v1\nkeys 4611686018427387904\nsessions 1\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C -4611686018427387904 \
       4611686018427387903 W(x1):=-4611686018427387904 \
       R(x0)=4_611_686_018_427_387_903\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 R(x0)=4611686018427387904\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 c 1 1 R(x0)=0\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 R(x\t1)=0\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 R(x1)=\r0\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 R(x1)=\0120\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 W(x1):=--1\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 W(x1):=+-1\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 W(x1):=_1\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 W(x1):1\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 W(x1)=1\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 R(x1):=1\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 R(x1)=\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 R(X1)=1\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 CA 1 1 R(x0)=0\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntx 1 1 C 1 1 R(x0)=0\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 R(x0)=0\r\ntxn 2 1 C 2 2\r\n";
      (* semantic error first, syntax error later: the syntax error wins *)
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 9 C 1 1 R(x0)=0\ntxn 2 1 Q 1 1\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 2 1 C 1 1 R(x0)=0\ntxn 1 1 C 1 1 R(x5)=0\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 R(x0)=0\ntxn 1 1 C 1 1\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 R(x0)=0\ntxn 0 1 C 1 1\n";
      "mtc-history v1\nkeys 2\nsessions 1\ntxn 1 1 C 1 1 R(x0)=0 W(x7):=1 R(x9)=0\n";
    ]

(* The one deliberate change: the reference silently drops the glued
   write, the codec rejects the token (its message is pinned in
   test_history.ml), and [agree] accepts exactly that difference. *)
let test_suffix_rejected () =
  let s =
    "mtc-history v1\nkeys 3\nsessions 1\n# c\ntxn 1 1 C 1 1 R(x1)=0W(x2):=3\n"
  in
  checkb "reference drops the glued write" true
    (match Ref_codec.of_string s with
    | Ok h -> Array.length (History.txn h 1).Txn.ops = 1
    | Error _ -> false);
  checkb "property classifies it" true (agree s);
  checkb "a wrong line is not the suffix class" false
    (suffix_rejection s (Ref_codec.of_string s)
       "line 4: bad operation \"R(x1)=0W(x2):=3\"")

(* --- the writer --- *)

let prop_write_engine =
  QCheck2.Test.make ~name:"codec writer is byte-identical to reference"
    ~count:40 ~print:print_engine engine_gen (fun c ->
      let h = engine_history c in
      Codec.to_string h = Ref_codec.to_string h)

let prop_write_extreme =
  QCheck2.Test.make ~name:"codec writer is byte-identical on extreme ints"
    ~count:300 extreme_history_gen (fun h ->
      Codec.to_string h = Ref_codec.to_string h)

(* --- allocation --- *)

(* Parsing allocates the history it returns and little else: a bound in
   words per op on a 20k-txn engine history (the list-and-Scanf parser
   allocated about 400). *)
let test_parse_alloc () =
  let h =
    let p =
      { Stream_gen.default with num_txns = 20_000; num_keys = 200;
        num_sessions = 8; dist = Distribution.Uniform; seed = 5 }
    in
    let acc = ref [] in
    Stream_gen.generate p (fun t -> acc := t :: !acc);
    History.make ~num_keys:200 ~num_sessions:8 (List.rev !acc)
  in
  let text = Codec.to_string h in
  let ops =
    Array.fold_left (fun n (t : Txn.t) -> n + Array.length t.ops) 0 h.txns
  in
  let parse () =
    match Codec.of_string text with
    | Ok h' -> ignore (Sys.opaque_identity h')
    | Error e -> Alcotest.fail e
  in
  (* Minimum of a few runs: Gc.allocated_bytes can absorb counters from
     domains terminated by earlier suites, inflating a single delta. *)
  parse ();
  let best = ref infinity in
  for _ = 1 to 3 do
    let a0 = Gc.allocated_bytes () in
    parse ();
    let d = Gc.allocated_bytes () -. a0 in
    if d < !best then best := d
  done;
  let words_per_op = !best /. 8. /. float_of_int ops in
  if words_per_op > 12. then
    Alcotest.failf "parsing allocated %.1f words per op (bound 12)" words_per_op

(* --- the screens --- *)

(* Duplicate writes injected into an engine history: a write's pair
   copied into another transaction's write (the source being a final,
   intermediate or aborted write, whichever it happens to be), and one
   transaction writing the same pair twice — which is not a duplicate. *)
let inject (h : History.t) seed =
  let rnd = Random.State.make [| seed |] in
  let txns = Array.map (fun (t : Txn.t) -> { t with ops = Array.copy t.ops }) h.txns in
  let n = Array.length txns in
  let writes_of i =
    List.filter_map
      (fun (j, op) -> if Op.is_write op then Some j else None)
      (List.mapi (fun j op -> (j, op)) (Array.to_list txns.(i).Txn.ops))
  in
  if n > 2 then
    for _ = 1 to Random.State.int rnd 4 do
      let a = 1 + Random.State.int rnd (n - 1)
      and b = 1 + Random.State.int rnd (n - 1) in
      match (writes_of a, writes_of b) with
      | (_ :: _ as wa), (_ :: _ as wb) ->
          let ja = List.nth wa (Random.State.int rnd (List.length wa))
          and jb = List.nth wb (Random.State.int rnd (List.length wb)) in
          if Random.State.bool rnd then
            (* the same pair written twice by [a] *)
            txns.(a) <-
              { (txns.(a)) with
                ops = Array.append txns.(a).ops [| txns.(a).ops.(ja) |] }
          else txns.(b).ops.(jb) <- txns.(a).ops.(ja)
      | _ -> ()
    done;
  History.of_array ~num_keys:h.num_keys ~num_sessions:h.num_sessions txns

let screens_agree h =
  let idx = Index.build h in
  let seq = History.unique_values h = Ref_screens.unique_values h
  and find = Divergence.find idx = Ref_screens.find idx
  and all = Divergence.find_all idx = Ref_screens.find_all idx in
  let par =
    Pool.with_pool ~size:2 (fun pool ->
        History.unique_values ~pool h = Ref_screens.unique_values ~pool h
        && Divergence.find ~pool idx = Ref_screens.find ~pool idx
        && Divergence.find ~pool idx = Ref_screens.find idx)
  in
  seq && find && all && par

let prop_screens =
  QCheck2.Test.make ~name:"screens agree with reference on injected duplicates"
    ~count:60
    ~print:(fun (c, seed) -> Printf.sprintf "%s inject=%d" (print_engine c) seed)
    QCheck2.Gen.(pair engine_gen (int_range 0 1_000_000))
    (fun (c, seed) -> screens_agree (inject (engine_history c) seed))

let prop_screens_lost_update =
  QCheck2.Test.make ~name:"screens agree with reference on lost-update runs"
    ~count:25
    ~print:(fun (seed, keys) -> Printf.sprintf "seed=%d keys=%d" seed keys)
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 1 20))
    (fun (seed, keys) ->
      screens_agree
        (engine_history
           (seed, keys, 300, 6, Isolation.Snapshot, Fault.Lost_update 0.2)))

let suite =
  [
    qtest prop_parse_engine;
    qtest prop_parse_extreme;
    ("parse: edge inputs agree", `Quick, test_parse_edge_inputs);
    ("parse: op suffix rejected", `Quick, test_suffix_rejected);
    qtest prop_write_engine;
    qtest prop_write_extreme;
    ("parse: words per op bounded", `Quick, test_parse_alloc);
    qtest prop_screens;
    qtest prop_screens_lost_update;
  ]
