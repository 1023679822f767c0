let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let chrome_json (events : Obs_trace.event list) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i (e : Obs_trace.event) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":";
      buf_add_json_string b e.ev_name;
      (* ts/dur are doubles in microseconds; keep ns precision in the
         fraction. *)
      Buffer.add_string b
        (Printf.sprintf
           ",\"cat\":\"mtc\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}"
           (float_of_int e.ev_t0 /. 1e3)
           (float_of_int e.ev_dur /. 1e3)
           e.ev_dom))
    events;
  Buffer.add_string b "]}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)

let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prometheus (r : Obs_metrics.registry) =
  let b = Buffer.create 4096 in
  let header name help kind =
    if help <> "" then
      Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  Obs_metrics.iter r (fun ~name ~help inst ->
      match inst with
      | Obs_metrics.I_counter c ->
          header name help "counter";
          Buffer.add_string b
            (Printf.sprintf "%s %d\n" name (Obs_metrics.Counter.get c))
      | Obs_metrics.I_gauge g ->
          header name help "gauge";
          Buffer.add_string b
            (Printf.sprintf "%s %d\n" name (Obs_metrics.Gauge.get g))
      | Obs_metrics.I_histogram h ->
          header name help "histogram";
          let s = Obs_histogram.snapshot h in
          let top =
            if s.Obs_histogram.s_count = 0 then -1
            else Obs_histogram.bucket_of s.Obs_histogram.s_max
          in
          let cum = ref 0 in
          for i = 0 to top do
            cum := !cum + s.Obs_histogram.s_buckets.(i);
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" name
                 (Obs_histogram.upper_edge i)
                 !cum)
          done;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name
               s.Obs_histogram.s_count);
          Buffer.add_string b
            (Printf.sprintf "%s_sum %.17g\n" name s.Obs_histogram.s_sum);
          Buffer.add_string b
            (Printf.sprintf "%s_count %d\n" name s.Obs_histogram.s_count));
  Buffer.contents b

(* ------------------------------------------------------------------ *)

(* [mtc_txns_fed_total] -> [txns_fed]: drop the namespace and the
   counter suffix, which Prometheus needs and a JSON reader does not. *)
let json_key name =
  let p = if String.starts_with ~prefix:"mtc_" name then 4 else 0 in
  let s = if String.ends_with ~suffix:"_total" name then 6 else 0 in
  String.sub name p (String.length name - p - s)

let json_members (r : Obs_metrics.registry) =
  let acc = ref [] in
  Obs_metrics.iter r (fun ~name ~help:_ inst ->
      let value =
        match inst with
        | Obs_metrics.I_counter c -> string_of_int (Obs_metrics.Counter.get c)
        | Obs_metrics.I_gauge g -> string_of_int (Obs_metrics.Gauge.get g)
        | Obs_metrics.I_histogram h ->
            let s = Obs_histogram.snapshot h in
            Printf.sprintf
              "{\"count\":%d,\"mean\":%.0f,\"p50\":%d,\"p99\":%d,\"max\":%d}"
              s.Obs_histogram.s_count (Obs_histogram.mean_of s)
              (Obs_histogram.percentile_of s 50.0)
              (Obs_histogram.percentile_of s 99.0)
              s.Obs_histogram.s_max
      in
      acc := Printf.sprintf "\"%s\":%s" (json_key name) value :: !acc);
  List.rev !acc
