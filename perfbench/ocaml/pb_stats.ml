(* The benchmark's own arithmetic: medians, tail percentiles that honour
   the "at least ten samples beyond" rule, span self time and open-loop
   lag.  Everything here is checked by [self_test] on hand-made inputs
   before every run. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Median of a non-empty sample; the mean of the two middle values when
   the count is even. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pb_stats.median: empty";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   sample at or below it (the epsilon keeps 0.99 *. 1000. at rank 990). *)
let rank ~n p =
  Stdlib.max 1 (int_of_float (Float.ceil ((p *. float n) -. 1e-9)))

let beyond ~n p = n - rank ~n p

(* [tail xs p] is the [p]-percentile when at least ten samples lie beyond
   it; otherwise the highest percentile below [p] that has ten samples
   beyond it (the median for small samples).  Returns the percentile
   actually used with its value, so a report can say which it is. *)
let tail xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pb_stats.tail: empty";
  let a = sorted xs in
  let p =
    if beyond ~n p >= 10 then p
    else Float.max 0.5 (float (n - 10) /. float n)
  in
  (p, a.(rank ~n p - 1))

(* A span as the self-time arithmetic sees it. *)
type span = { id : int; parent : int; start : int; stop : int }

(* Self time of span [s]: its duration minus the part of it covered by
   its direct children (overlapping children are counted once). *)
let self_time spans s =
  let kids =
    List.filter_map
      (fun c ->
        if c.parent = s.id && c.id <> s.id then
          let a = Stdlib.max c.start s.start and b = Stdlib.min c.stop s.stop in
          if b > a then Some (a, b) else None
        else None)
      spans
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Stdlib.max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, min_int) kids
  in
  s.stop - s.start - covered

(* Open-loop lag: a verdict that arrives at [arrived] for a request due
   at [scheduled] waited [arrived - scheduled], whenever it was really
   sent.  Clamped at 0 for a clock that reads the same twice. *)
let lag ~scheduled ~arrived = Stdlib.max 0 (arrived - scheduled)

let self_test () =
  let fails = ref [] in
  let expect name ok = if not ok then fails := name :: !fails in
  let close a b = Float.abs (a -. b) < 1e-9 in
  expect "median odd" (close (median [| 3.; 1.; 2. |]) 2.);
  expect "median even" (close (median [| 4.; 1.; 3.; 2. |]) 2.5);
  expect "median one" (close (median [| 7. |]) 7.);
  let hundred = Array.init 100 (fun i -> float (i + 1)) in
  (* 100 samples: p99 has 1 beyond, p90 has 10 beyond. *)
  let p, v = tail hundred 0.99 in
  expect "tail falls back to p90 on 100 samples" (close p 0.9 && close v 90.);
  let thousand = Array.init 1000 (fun i -> float (1000 - i)) in
  let p, v = tail thousand 0.99 in
  expect "p99 on 1000 samples" (close p 0.99 && close v 990.);
  expect "p99 leaves ten beyond" (beyond ~n:1000 0.99 = 10);
  let p, v = tail [| 5.; 1.; 3. |] 0.99 in
  expect "tiny sample reports the median" (close p 0.5 && close v 3.);
  let p, v = tail hundred 0.5 in
  expect "p50 untouched" (close p 0.5 && close v 50.);
  let sp id parent start stop = { id; parent; start; stop } in
  let root = sp 1 0 0 100 in
  let spans =
    [ root; sp 2 1 10 30; sp 3 1 20 50; sp 4 1 90 130; sp 5 2 12 14 ]
  in
  (* children cover [10,50) and [90,100): 50 ns of 100; grandchild 5 is
     inside child 2 and does not count against the root. *)
  expect "self time of root" (self_time spans root = 50);
  expect "self time of child" (self_time spans (sp 2 1 10 30) = 18);
  expect "self time of leaf" (self_time spans (sp 5 2 12 14) = 2);
  expect "lag from schedule" (lag ~scheduled:1_000 ~arrived:1_750 = 750);
  expect "lag of a late send still counts from schedule"
    (lag ~scheduled:1_000 ~arrived:5_000 = 4_000);
  expect "lag never negative" (lag ~scheduled:2_000 ~arrived:1_999 = 0);
  List.rev !fails
