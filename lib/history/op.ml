type key = int
type value = int

type t = Read of key * value | Write of key * value

let key = function Read (k, _) | Write (k, _) -> k
let value = function Read (_, v) | Write (_, v) -> v
let is_read = function Read _ -> true | Write _ -> false
let is_write = function Write _ -> true | Read _ -> false

let pp ppf = function
  | Read (k, v) -> Format.fprintf ppf "R(x%d)=%d" k v
  | Write (k, v) -> Format.fprintf ppf "W(x%d):=%d" k v

(* [string_of_int n] appended digit by digit, from the non-positive
   magnitude so [min_int] needs no special case: [string_of_int] goes
   through a C [printf] per call, which more than doubled the
   writer's time. *)
let rec add_neg_digits buf m =
  if m <= -10 then add_neg_digits buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (-n)

let add_to_buffer buf = function
  | Read (k, v) ->
      Buffer.add_string buf "R(x";
      add_int buf k;
      Buffer.add_string buf ")=";
      add_int buf v
  | Write (k, v) ->
      Buffer.add_string buf "W(x";
      add_int buf k;
      Buffer.add_string buf "):=";
      add_int buf v

let to_string op =
  let buf = Buffer.create 16 in
  add_to_buffer buf op;
  Buffer.contents buf

(* --- the op grammar ---

     op  ::= "R(x" int ")=" int  |  "W(x" int "):=" int
     int ::= [+-]? digit (digit | '_')*

   [int] is the integer syntax of [Scanf]'s ["%d"] (underscores are
   skipped, the literal must fit an OCaml int), so every token the
   [Scanf]-based parser of earlier releases read in full still parses to
   the same op.  Unlike [Scanf], the whole token must match: a trailing
   suffix ("R(x1)=5junk", or two ops glued by a missing space) is an
   error rather than silently dropped. *)

exception Malformed

let is_digit c = c >= '0' && c <= '9'

(* End of the [int] that starts at [i] (input ends at [j]): integers are
   read greedily, so whatever follows is left for the caller. *)
let int_end s i j =
  let d = if i < j && (s.[i] = '-' || s.[i] = '+') then i + 1 else i in
  if d >= j || not (is_digit s.[d]) then raise Malformed;
  let k = ref d in
  while
    !k < j
    &&
    let ch = String.unsafe_get s !k in
    is_digit ch || ch = '_'
  do
    incr k
  done;
  !k

(* Value of the [int] spelled by [s.[i..e)].  Up to 18 digits cannot
   overflow and are summed in place; longer literals go through
   [int_of_string_opt], which applies OCaml's own range check (and skips
   underscores exactly as [Scanf] does). *)
let int_value s i e =
  let acc = ref 0 and digits = ref 0 in
  for k = i to e - 1 do
    let ch = String.unsafe_get s k in
    if is_digit ch then begin
      acc := (!acc * 10) + (Char.code ch - 48);
      incr digits
    end
  done;
  if !digits <= 18 then if s.[i] = '-' then - !acc else !acc
  else
    match int_of_string_opt (String.sub s i (e - i)) with
    | Some n -> n
    | None -> raise Malformed

(* Position just past [lit], which must start at [i]. *)
let expect s i j lit =
  let n = String.length lit in
  if i + n > j then raise Malformed;
  for k = 0 to n - 1 do
    if String.unsafe_get s (i + k) <> String.unsafe_get lit k then
      raise Malformed
  done;
  i + n

let parse s i j =
  if i >= j then raise Malformed;
  let write =
    match s.[i] with 'R' -> false | 'W' -> true | _ -> raise Malformed
  in
  let ki = expect s (i + 1) j "(x" in
  let ke = int_end s ki j in
  let vi = expect s ke j (if write then "):=" else ")=") in
  let ve = int_end s vi j in
  if ve <> j then raise Malformed;
  let k = int_value s ki ke and v = int_value s vi ve in
  if write then Write (k, v) else Read (k, v)

let of_string s =
  match parse s 0 (String.length s) with
  | op -> Some op
  | exception Malformed -> None

let equal a b = a = b
let compare = Stdlib.compare
