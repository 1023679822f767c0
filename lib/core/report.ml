let classify (v : Checker.violation) =
  match v with
  | Checker.Intra { kind; _ } ->
      Some
        (match kind with
        | Int_check.Thin_air_read -> Anomaly.Thin_air_read
        | Int_check.Aborted_read _ -> Anomaly.Aborted_read
        | Int_check.Future_read -> Anomaly.Future_read
        | Int_check.Not_my_last_write -> Anomaly.Not_my_last_write
        | Int_check.Not_my_own_write -> Anomaly.Not_my_own_write
        | Int_check.Intermediate_read _ -> Anomaly.Intermediate_read
        | Int_check.Non_repeatable_reads -> Anomaly.Non_repeatable_reads)
  | Checker.Diverged _ -> Some Anomaly.Lost_update
  | Checker.Malformed _ -> None
  | Checker.Cyclic cycle ->
      let is_rw = function Deps.RW _ -> true | _ -> false in
      let labels = List.map (fun (_, d, _) -> d) cycle in
      let rw_count = List.length (List.filter is_rw labels) in
      let n = List.length labels in
      let adjacent_rw =
        (* cyclically adjacent *)
        let arr = Array.of_list labels in
        let adj = ref false in
        for i = 0 to n - 1 do
          if is_rw arr.(i) && is_rw arr.((i + 1) mod n) then adj := true
        done;
        !adj
      in
      let has_so = List.exists (function Deps.SO -> true | _ -> false) labels in
      let keys =
        List.filter_map
          (function
            | Deps.RW k | Deps.WW k | Deps.WR k -> Some k | Deps.RT | Deps.SO | Deps.Rt_chain -> None)
          labels
        |> List.sort_uniq compare
      in
      if rw_count = 2 && adjacent_rw && List.length keys >= 2 then
        Some Anomaly.Write_skew
      else if rw_count = 2 && adjacent_rw then Some Anomaly.Lost_update
      else if rw_count >= 2 then Some Anomaly.Long_fork
      else if has_so && n = 2 then Some Anomaly.Session_guarantee_violation
      else if rw_count = 1 && n = 2 then Some Anomaly.Non_monotonic_read
      else if rw_count = 1 then Some Anomaly.Causality_violation
      else None

let render (h : History.t) level (v : Checker.violation) =
  let buf = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "%s violation" (Checker.level_name level);
  (match classify v with
  | Some kind -> addf " [%s: %s]" (Anomaly.name kind) (Anomaly.description kind)
  | None -> ());
  addf "\n  %s\n" (Format.asprintf "%a" Checker.pp_violation v);
  let mention =
    match v with
    | Checker.Intra { txn; kind; _ } -> (
        txn
        ::
        (match kind with
        | Int_check.Aborted_read w | Int_check.Intermediate_read w -> [ w ]
        | _ -> []))
    | Checker.Diverged i ->
        let r1, _ = i.Divergence.reader1 and r2, _ = i.Divergence.reader2 in
        [ i.Divergence.writer; r1; r2 ]
    | Checker.Cyclic cycle ->
        List.concat_map (fun (a, _, b) -> [ a; b ]) cycle
    | Checker.Malformed _ -> []
  in
  let mention = List.sort_uniq compare (List.filter (fun t -> t >= 0) mention) in
  if mention <> [] then begin
    addf "  involved transactions:\n";
    List.iter
      (fun id ->
        if id = History.init_id then
          addf "    T0[the initial transaction]\n"
        else
          addf "    %s\n" (Format.asprintf "%a" Txn.pp (History.txn h id)))
      mention
  end;
  (match Checker.ce_position v with
  | Some p -> addf "  counterexample position: %d\n" p
  | None -> ());
  Buffer.contents buf

let render_parts level v =
  let anomaly = Option.map Anomaly.name (classify v) in
  let rendered =
    Format.asprintf "%s violation%s: %a" (Checker.level_name level)
      (match anomaly with Some a -> Printf.sprintf " [%s]" a | None -> "")
      Checker.pp_violation v
  in
  (anomaly, rendered)

let summary h outcomes =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (History.stats h);
  Buffer.add_char buf '\n';
  List.iter
    (fun (level, outcome) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-4s : %s\n"
           (Checker.level_name level)
           (Format.asprintf "%a" Checker.pp_outcome outcome)))
    outcomes;
  Buffer.contents buf
