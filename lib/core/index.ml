type t = {
  history : History.t;
  committed : Txn.t array;
  vertex_of_txn : int array;
  writers : Flat_index.Writers.t option array;
  mutable finals : Bytes.t option;
}

(* Writer tables are striped by key so registration can run one task per
   stripe with no shared mutable state.  The stripe count is fixed (not
   the pool size): lookup routing must not depend on how the table was
   built. *)
let num_stripes = 8

let stripe_of_key k = k mod num_stripes

(* Finality of every committed op, flat across the whole history in op
   scan order (aborted transactions leave '\000' gaps).  Computed once
   per index and shared: readers recover per-txn offsets by keeping a
   running op count over the same scan. *)
let compute_finals (h : History.t) =
  let txns = h.txns in
  let total =
    Array.fold_left (fun n (t : Txn.t) -> n + Array.length t.Txn.ops) 0 txns
  in
  let finals = Bytes.make (Stdlib.max 1 total) '\000' in
  let off = ref 0 in
  Array.iter
    (fun (t : Txn.t) ->
      if Txn.is_committed t then Txn.mark_finals t finals !off;
      off := !off + Array.length t.Txn.ops)
    txns;
  finals

let finals t =
  match t.finals with
  | Some b -> b
  | None ->
      let b = compute_finals t.history in
      t.finals <- Some b;
      b

(* Register every write of keys in [stripe] into that stripe's table.
   Each task rescans the whole op stream (cheap: the filter is one mod)
   but inserts only its own keys, so the tasks share nothing mutable. *)
let register_stripe (h : History.t) ~finals w stripe =
  (* Explicit loops, no per-transaction closures: registration runs once
     per stripe over the whole op stream, so closure allocation here
     would dominate the build's footprint. *)
  let txns = h.txns in
  let off = ref 0 in
  for ti = 0 to Array.length txns - 1 do
    let t = txns.(ti) in
    let ops = t.ops in
    let n = Array.length ops in
    let base = !off in
    (match t.status with
    | Txn.Committed ->
        for i = 0 to n - 1 do
          match ops.(i) with
          | Op.Write (k, v) when stripe_of_key k = stripe ->
              if Bytes.unsafe_get finals (base + i) = '\001' then
                Flat_index.Writers.set_final w k v t.id
              else
                (* An overwritten write whose value happens to equal
                   the final one is re-registered as intermediate; the
                   final tier shadows it in [resolve], matching the
                   value semantics of [Txn.iter_intermediate_writes]. *)
                Flat_index.Writers.set_intermediate w k v t.id
          | Op.Write _ | Op.Read _ -> ()
        done
    | Txn.Aborted ->
        for i = 0 to n - 1 do
          match ops.(i) with
          | Op.Write (k, v) when stripe_of_key k = stripe ->
              Flat_index.Writers.set_aborted w k v t.id
          | Op.Write _ | Op.Read _ -> ()
        done);
    off := base + n
  done

let sp_writers = Obs.Trace.intern "infer/index/writers"

let fresh_table (h : History.t) =
  Flat_index.Writers.create ~num_keys:h.num_keys
    ~expected:(Stdlib.max 16 (4 * History.num_txns h / num_stripes))

let skeleton (h : History.t) =
  let n = History.num_txns h in
  let committed = Array.make (History.committed_count h) h.txns.(0) in
  let next = ref 0 in
  Array.iter
    (fun (t : Txn.t) ->
      if Txn.is_committed t then begin
        committed.(!next) <- t;
        incr next
      end)
    h.txns;
  let vertex_of_txn = Array.make n (-1) in
  Array.iteri (fun i (t : Txn.t) -> vertex_of_txn.(t.id) <- i) committed;
  {
    history = h;
    committed;
    vertex_of_txn;
    writers = Array.make num_stripes None;
    finals = None;
  }

let build ?pool (h : History.t) =
  let t = skeleton h in
  let fin = finals t in
  let tables = Array.init num_stripes (fun _ -> fresh_table h) in
  Pool.tasks pool
    (List.init num_stripes (fun stripe () ->
         Obs.Trace.with_span sp_writers (fun () ->
             register_stripe h ~finals:fin tables.(stripe) stripe)));
  Array.iteri (fun s w -> t.writers.(s) <- Some w) tables;
  t

let build_deferred (h : History.t) = skeleton h

let stripe_table t stripe =
  match t.writers.(stripe) with
  | Some w -> w
  | None ->
      let w =
        Obs.Trace.with_span sp_writers (fun () ->
            let w = fresh_table t.history in
            register_stripe t.history ~finals:(finals t) w stripe;
            w)
      in
      t.writers.(stripe) <- Some w;
      w

let num_vertices t = Array.length t.committed

let txn_of_vertex t v = t.committed.(v)

let vertex t id =
  let v = t.vertex_of_txn.(id) in
  if v < 0 then invalid_arg (Printf.sprintf "Index.vertex: T%d is aborted" id);
  v

type writer = Flat_index.Writers.who =
  | Final of Txn.id
  | Intermediate of Txn.id
  | Aborted of Txn.id
  | Nobody

let writer_of t k v =
  Flat_index.Writers.resolve (stripe_table t (stripe_of_key k)) k v
