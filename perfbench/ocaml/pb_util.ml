(* Small helpers shared by the workloads. *)

let now_ns = Obs_clock.now_ns
let secs ns = float ns /. 1e9

(* A field of /proc/<pid>/status in kB (VmHWM: the peak resident set). *)
let proc_status_kb pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> failwith (field ^ " missing in " ^ path)
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.sub line 0 i = field ->
                let rest = String.sub line (i + 1) (String.length line - i - 1) in
                Scanf.sscanf (String.trim rest) "%d" Fun.id
            | _ -> go ())
      in
      go ())

let peak_rss_mb pid = float (proc_status_kb pid "VmHWM") /. 1024.

(* Restart a process's VmHWM from its current resident set, so that a
   peak can be read per round. *)
let reset_peak_rss pid =
  let oc = open_out (Printf.sprintf "/proc/%s/clear_refs" pid) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")

(* utime + stime of a process, in clock ticks, from /proc/<pid>/stat. *)
let cpu_ticks pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* the command name may hold spaces: fields restart after the last ')' *)
  let rest = String.sub line (String.rindex line ')' + 2)
      (String.length line - String.rindex line ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* fields 14 and 15 of stat are utime and stime; [rest] starts at 3 *)
  int_of_string f.(11) + int_of_string f.(12)

(* Words this domain allocated in the minor heap so far: an exact count.
   Blocks too large for the minor heap go straight to the major heap and
   are not in it (the runtime books those only at major slices, so their
   running total is not repeatable). *)
let minor_words = Gc.minor_words

(* The outcome of a run, as printed on its last line. *)
type result = {
  mutable attempted : int;
  mutable failed : int;
  metrics : (string, float) Hashtbl.t;
}

let result () =
  { attempted = 0; failed = 0; metrics = Hashtbl.create 64 }

(* Count one operation; the first failures also say why on stderr. *)
let op r ok what =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if r.failed <= 20 then prerr_endline ("perfbench: FAILED " ^ what)
  end

let set r name v = Hashtbl.replace r.metrics name v

let median_of r name xs =
  if xs <> [] then set r name (Pb_stats.median (Array.of_list xs))
