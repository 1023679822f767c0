(* One checking session's durable state, its parameter codec and the
   feed step shared by the live server and WAL replay. *)

type params = {
  level : Checker.level;
  num_keys : int;
  skew : int;
  ts : Ts.mode;
  gc : Online.gc;
}

type state =
  | Live of Online.t
  | Poisoned of { anomaly : string option; rendered : string }

type t = {
  sid : int;
  params : params;
  mutable last_seq : int;
  mutable state : state;
}

let create ~sid ({ level; num_keys; skew; ts; gc } as params) =
  {
    sid;
    params;
    last_seq = 0;
    state = Live (Online.create ~skew ~ts ~gc ~level ~num_keys ());
  }

let add_params buf { level; num_keys; skew; ts; gc } =
  Buffer.add_char buf (Char.chr (Checker.level_to_byte level));
  Binio.add_uvarint buf num_keys;
  Binio.add_varint buf skew;
  Buffer.add_char buf (Char.chr (Ts.mode_to_byte ts));
  match gc with
  | Online.Gc_off -> Buffer.add_char buf '\000'
  | Online.Gc_auto -> Buffer.add_char buf '\001'
  | Online.Gc_words n ->
      Buffer.add_char buf '\002';
      Binio.add_uvarint buf n

let read_params r =
  let level = Binio.read_enum "level" Checker.level_of_byte r in
  let num_keys = Binio.read_uvarint r in
  let skew = Binio.read_varint r in
  let ts = Binio.read_enum "ts mode" Ts.mode_of_byte r in
  let gc =
    match Binio.read_byte r with
    | 0 -> Online.Gc_off
    | 1 -> Online.Gc_auto
    | 2 ->
        let n = Binio.read_uvarint r in
        if n <= 0 then Binio.fail "gc word ceiling %d must be positive" n
        else Online.Gc_words n
    | b -> Binio.fail "unknown gc policy byte %d" b
  in
  { level; num_keys; skew; ts; gc }

type step =
  | Ok_so_far
  | Violation of { anomaly : string option; rendered : string }

let feed t txn =
  match t.state with
  | Poisoned _ -> Ok_so_far
  | Live online -> (
      match Online.add_txn online txn with
      | Online.Ok_so_far -> Ok_so_far
      | Online.Violation v ->
          let anomaly, rendered = Report.render_parts t.params.level v in
          t.state <- Poisoned { anomaly; rendered };
          Violation { anomaly; rendered })
