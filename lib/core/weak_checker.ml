type level = Read_committed | Read_atomic | Causal

let level_name = function
  | Read_committed -> "RC"
  | Read_atomic -> "RA"
  | Causal -> "CC"

type violation =
  | Intra of Int_check.violation
  | G1c_cycle of (Txn.id * Deps.dep * Txn.id) list
  | Fractured of {
      reader : Txn.id;
      writer : Txn.id;
      read_key : Op.key;
      stale_key : Op.key;
    }
  | Causality of {
      reader : Txn.id;
      stale_key : Op.key;
      missed_writer : Txn.id;
    }
  | Hb_cycle of (Txn.id * Deps.dep * Txn.id) list
  | Malformed of string

type outcome = Pass | Fail of violation

let pp_violation ppf = function
  | Intra v -> Int_check.pp_violation ppf v
  | G1c_cycle cycle ->
      Format.fprintf ppf "@[<h>G1c cycle:";
      List.iter
        (fun (a, dep, b) ->
          Format.fprintf ppf " T%d -%a-> T%d;" a Deps.pp_dep dep b)
        cycle;
      Format.fprintf ppf "@]"
  | Fractured { reader; writer; read_key; stale_key } ->
      Format.fprintf ppf
        "fractured read: T%d reads x%d from T%d but an older version of x%d"
        reader read_key writer stale_key
  | Causality { reader; stale_key; missed_writer } ->
      Format.fprintf ppf
        "causality violation: T%d misses the causally prior write of T%d on \
         x%d"
        reader missed_writer stale_key
  | Hb_cycle cycle ->
      Format.fprintf ppf "@[<h>cyclic causal order:";
      List.iter
        (fun (a, dep, b) ->
          Format.fprintf ppf " T%d -%a-> T%d;" a Deps.pp_dep dep b)
        cycle;
      Format.fprintf ppf "@]"
  | Malformed msg -> Format.fprintf ppf "malformed history: %s" msg

let passes = function Pass -> true | Fail _ -> false

exception Bad of violation

let malformed fmt = Printf.ksprintf (fun msg -> raise (Bad (Malformed msg))) fmt

(* ------------------------------------------------------------------ *)
(* Version trees, read off the WW(k) edges of the dependency CSR.  A
   version is a final write (vertex, key).  Vertex [v]'s versions sit in
   slots [base.(v) .. base.(v + 1) - 1], sorted by key so {!slot} is a
   binary search.  The parent of (v, k) is (u, k) for the WW(k) edge
   [u -> v]: under the RMW pattern that is the version [v] read.  A
   pre-order tour numbers the slots: [pre.(s)] is the position of slot
   [s], its subtree occupies positions [pre.(s) .. stop.(s) - 1], and
   [order] maps a position back to its slot. *)

type versions = {
  base : int array;
  key : int array;  (** slot -> key *)
  writer : int array;  (** slot -> vertex *)
  pre : int array;
  stop : int array;
  order : int array;
}

let rec bsearch keys k lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let km = keys.(mid) in
    if km = k then mid
    else if km < k then bsearch keys k (mid + 1) hi
    else bsearch keys k lo mid

(* Slot of vertex [v]'s version of [k], or -1 if [v] does not write [k]. *)
let slot vs v k = bsearch vs.key k vs.base.(v) vs.base.(v + 1)

let sort_slice a lo hi =
  if hi - lo > 1 then begin
    let s = Array.sub a lo (hi - lo) in
    Array.sort Int.compare s;
    Array.blit s 0 a lo (hi - lo)
  end

let versions (idx : Index.t) (c : Deps.dep Csr.t) =
  let n = Index.num_vertices idx in
  let base = Array.make (n + 1) 0 in
  Array.iteri
    (fun v t ->
      let d = ref 0 in
      Txn.iter_final_writes t (fun _ _ _ -> incr d);
      base.(v + 1) <- base.(v) + !d)
    idx.committed;
  let total = base.(n) in
  let key = Array.make total 0 and writer = Array.make total 0 in
  Array.iteri
    (fun v t ->
      let i = ref base.(v) in
      Txn.iter_final_writes t (fun _ k _ ->
          key.(!i) <- k;
          writer.(!i) <- v;
          incr i);
      sort_slice key base.(v) base.(v + 1))
    idx.committed;
  let vs =
    { base; key; writer; pre = Array.make total 0; stop = Array.make total 0;
      order = Array.make total 0 }
  in
  (* Tree edges, one WW(k) edge into every version that has a parent. *)
  let parent = Array.make total (-1) in
  for u = 0 to n - 1 do
    for e = c.Csr.offsets.(u) to c.Csr.offsets.(u + 1) - 1 do
      match c.Csr.labels.(e) with
      | Deps.WW k -> parent.(slot vs c.Csr.targets.(e) k) <- slot vs u k
      | Deps.RT | Deps.SO | Deps.WR _ | Deps.RW _ | Deps.Rt_chain -> ()
    done
  done;
  (* Every version but the initial transaction's must extend the one its
     writer read; report the first that does not, in id order and then in
     the writer's first-write order. *)
  let init = Index.vertex idx History.init_id in
  for s = 0 to total - 1 do
    let v = writer.(s) in
    if parent.(s) < 0 && v <> init then begin
      let t = Index.txn_of_vertex idx v in
      let first = ref None and reads = ref false in
      Txn.iter_final_writes t (fun _ x _ ->
          if !first = None && parent.(slot vs v x) < 0 then first := Some x);
      let k = Option.get !first in
      Txn.iter_external_reads t (fun _ x _ -> if x = k then reads := true);
      if !reads then
        malformed "write of x%d by T%d extends an unknown version" k t.id
      else malformed "blind write of x%d by T%d: not a mini-transaction" k t.id
    end
  done;
  (* Children in CSR form, then an iterative pre-order tour from the
     roots; subtree ends come from sizes summed in reverse pre-order. *)
  let child_off = Array.make (total + 1) 0 in
  Array.iter
    (fun p -> if p >= 0 then child_off.(p + 1) <- child_off.(p + 1) + 1)
    parent;
  for s = 1 to total do
    child_off.(s) <- child_off.(s) + child_off.(s - 1)
  done;
  let child = Array.make total 0 in
  let cursor = Array.sub child_off 0 total in
  Array.iteri
    (fun s p ->
      if p >= 0 then begin
        child.(cursor.(p)) <- s;
        cursor.(p) <- cursor.(p) + 1
      end)
    parent;
  let stack = cursor (* reused: at most [total] slots are ever pushed *) in
  let clock = ref 0 in
  for root = 0 to total - 1 do
    if parent.(root) < 0 then begin
      stack.(0) <- root;
      let top = ref 1 in
      while !top > 0 do
        decr top;
        let s = stack.(!top) in
        vs.pre.(s) <- !clock;
        vs.order.(!clock) <- s;
        incr clock;
        for j = child_off.(s) to child_off.(s + 1) - 1 do
          stack.(!top) <- child.(j);
          incr top
        done
      done
    end
  done;
  Array.fill vs.stop 0 total 1;
  for p = total - 1 downto 0 do
    let s = vs.order.(p) in
    if parent.(s) >= 0 then
      vs.stop.(parent.(s)) <- vs.stop.(parent.(s)) + vs.stop.(s)
  done;
  Array.iteri (fun s size -> vs.stop.(s) <- vs.pre.(s) + size) vs.stop;
  vs

(* The version a read of [k] returned: the writer's slot. *)
let version_read idx vs k v =
  let s =
    match Index.writer_of idx k v with
    | Index.Final w -> slot vs (Index.vertex idx w) k
    | Index.Intermediate _ | Index.Aborted _ | Index.Nobody -> -1
  in
  if s < 0 then malformed "no version %d of x%d" v k else s

(* Is slot [a] a strict ancestor of slot [b]?  (Same key's tree.) *)
let strict_ancestor vs a b =
  vs.pre.(a) < vs.pre.(b) && vs.pre.(b) < vs.stop.(a)

(* ------------------------------------------------------------------ *)

let sp_cycle = Obs.Trace.intern "check/cycle"
let sp_versions = Obs.Trace.intern "infer/versions"
let sp_fractured = Obs.Trace.intern "check/fractured"
let sp_causal = Obs.Trace.intern "check/causal"

let acyclic_or violation g d =
  match Obs.Trace.with_span sp_cycle (fun () -> Cycle.find_csr g) with
  | Some cycle -> raise (Bad (violation (Deps.to_txn_cycle d cycle)))
  | None -> ()

let g1c d =
  let ww_wr = function
    | Deps.WR _ | Deps.WW _ -> true
    | Deps.RT | Deps.SO | Deps.RW _ | Deps.Rt_chain -> false
  in
  acyclic_or (fun c -> G1c_cycle c) (Csr.filter ww_wr (Deps.freeze d)) d

let fractured (idx : Index.t) vs =
  Array.iter
    (fun (r : Txn.t) ->
      Txn.iter_external_reads r (fun _ x v ->
          match Index.writer_of idx x v with
          | Index.Final w when w <> r.id && w <> History.init_id ->
              let wv = Index.vertex idx w in
              Txn.iter_external_reads r (fun _ y vy ->
                  if y <> x then begin
                    let written = slot vs wv y in
                    if written >= 0
                       && strict_ancestor vs (version_read idx vs y vy) written
                    then
                      raise
                        (Bad
                           (Fractured
                              { reader = r.id; writer = w; read_key = x;
                                stale_key = y }))
                  end)
          | _ -> ()))
    idx.committed

(* [ancestor u r] iff [u hb* r], for an acyclic hb, from one row of ints
   per vertex joined along hb edges in a topological order.  With few
   sessions a row is a vector clock: entry [s] of [r]'s row is the last
   position in session [s] of an hb-predecessor of [r] (or of [r]
   itself), so [u hb* r] iff entry [session u] >= [pos u].  With more
   sessions than ⌈n/63⌉ a row is the bitset of [r]'s hb-ancestors
   instead, so the table holds n × min(sessions, ⌈n/63⌉) ints: about n²
   bits at worst.  Sessions are renumbered densely first, since a
   history may declare far more than it uses. *)
let hb_ancestry (idx : Index.t) hb =
  let n = Csr.n hb in
  let dense = Array.make (idx.history.History.num_sessions + 1) (-1) in
  let sess = Array.make n 0 and pos = Array.make n 0 in
  let next = Array.make n 0 and ns = ref 0 in
  Array.iteri
    (fun v (t : Txn.t) ->
      if dense.(t.session) < 0 then begin
        dense.(t.session) <- !ns;
        incr ns
      end;
      let s = dense.(t.session) in
      sess.(v) <- s;
      pos.(v) <- next.(s);
      next.(s) <- pos.(v) + 1)
    idx.committed;
  let words = (n + 62) / 63 in
  let clocks = !ns <= words in
  let width = if clocks then !ns else words in
  let row = Array.make (n * width) (if clocks then -1 else 0) in
  List.iter
    (fun u ->
      let bu = u * width in
      if clocks then row.(bu + sess.(u)) <- pos.(u)
      else row.(bu + (u / 63)) <- row.(bu + (u / 63)) lor (1 lsl (u mod 63));
      for e = hb.Csr.offsets.(u) to hb.Csr.offsets.(u + 1) - 1 do
        let bv = hb.Csr.targets.(e) * width in
        if clocks then
          for i = 0 to width - 1 do
            let a = row.(bu + i) in
            if a > row.(bv + i) then row.(bv + i) <- a
          done
        else
          for i = 0 to width - 1 do
            row.(bv + i) <- row.(bv + i) lor row.(bu + i)
          done
      done)
    (Option.get (Topo.sort_csr hb));
  if clocks then fun u r -> row.((r * width) + sess.(u)) >= pos.(u)
  else fun u r -> row.((r * width) + (u / 63)) land (1 lsl (u mod 63)) <> 0

(* hb = (SO ∪ WR)⁺, the SO and WR edges of the CSR.  A read of [y] is
   stale iff one of the reader's RW(y) successors — the writers of the
   children of the version read — is an hb-predecessor: tree edges are
   WR edges, so a descendant writer that precedes the reader drags its
   ancestor child's writer along. *)
let causal (idx : Index.t) d vs =
  let c = Deps.freeze d in
  let so_wr = function
    | Deps.SO | Deps.WR _ -> true
    | Deps.RT | Deps.WW _ | Deps.RW _ | Deps.Rt_chain -> false
  in
  let hb = Csr.filter so_wr c in
  acyclic_or (fun c -> Hb_cycle c) hb d;
  Obs.Trace.with_span sp_causal @@ fun () ->
  let ancestor = hb_ancestry idx hb in
  let precedes u r = u <> r && ancestor u r in
  Array.iteri
    (fun rv (r : Txn.t) ->
      Txn.iter_external_reads r (fun _ y v ->
          for e = c.Csr.offsets.(rv) to c.Csr.offsets.(rv + 1) - 1 do
            match c.Csr.labels.(e) with
            | Deps.RW k when k = y && precedes c.Csr.targets.(e) rv ->
                (* Name the smallest hb-predecessor writing below the
                   version read, as a scan of the whole subtree would. *)
                let s = version_read idx vs y v in
                let missed = ref max_int in
                for p = vs.pre.(s) + 1 to vs.stop.(s) - 1 do
                  let u = vs.writer.(vs.order.(p)) in
                  if u < !missed && precedes u rv then missed := u
                done;
                let missed_writer = (Index.txn_of_vertex idx !missed).Txn.id in
                raise
                  (Bad
                     (Causality { reader = r.id; stale_key = y; missed_writer }))
            | _ -> ()
          done))
    idx.committed

let check ?pool level h =
  try
    let idx =
      match Checker.screened_index ?pool h with
      | Ok idx -> idx
      | Error (`Malformed msg) -> raise (Bad (Malformed msg))
      | Error (`Intra v) -> raise (Bad (Intra v))
    in
    let d =
      match Deps.build ?pool ~rt:Deps.No_rt idx with
      | Ok d -> d
      | Error e -> malformed "%s" (Format.asprintf "%a" Deps.pp_error e)
    in
    g1c d;
    if level <> Read_committed then begin
      let vs =
        Obs.Trace.with_span sp_versions (fun () -> versions idx (Deps.freeze d))
      in
      Obs.Trace.with_span sp_fractured (fun () -> fractured idx vs);
      if level = Causal then causal idx d vs
    end;
    Pass
  with Bad v -> Fail v

let check_rc h = check Read_committed h
let check_ra h = check Read_atomic h
let check_causal h = check Causal h
