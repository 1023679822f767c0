(* Reference screens the tests compare the library against: the
   unique-values screen and the SI divergence screen as first written —
   tuple-keyed [Hashtbl]s, per-transaction [external_reads] lists, and
   one full pass over the history per key stripe.  Kept verbatim so they
   share no code with the flat single-pass screens beyond [Index]. *)

open Divergence

(* Key stripes screen independently (a duplicate pair involves one key);
   each reports its first duplicate's (txn position, op index) and the
   global minimum reproduces the sequential first-in-scan-order error. *)
let uv_stripes = 8

let unique_values ?pool (h : History.t) =
  let results =
    Pool.map_slices pool ~n:uv_stripes (fun lo hi ->
        let best = ref None in
        for stripe = lo to hi - 1 do
          let seen = Hashtbl.create 1024 in
          let exception Dup in
          try
            Array.iteri
              (fun ti (t : Txn.t) ->
                Array.iteri
                  (fun oi op ->
                    match op with
                    | Op.Write (k, v) when k mod uv_stripes = stripe -> (
                        match Hashtbl.find_opt seen (k, v) with
                        | Some other when other <> t.id ->
                            let msg =
                              Printf.sprintf
                                "writes of value %d to key %d by both T%d and \
                                 T%d"
                                v k other t.id
                            in
                            (match !best with
                            | Some (bt, bo, _)
                              when bt < ti || (bt = ti && bo < oi) ->
                                ()
                            | Some _ | None -> best := Some (ti, oi, msg));
                            raise Dup
                        | Some _ | None -> Hashtbl.replace seen (k, v) t.id)
                    | Op.Write _ | Op.Read _ -> ())
                  t.ops)
              h.txns
          with Dup -> ()
        done;
        !best)
  in
  let best =
    Array.fold_left
      (fun acc hit ->
        match (acc, hit) with
        | None, hit -> hit
        | Some _, None -> acc
        | Some (at, ao, _), Some (bt, bo, _) ->
            if bt < at || (bt = at && bo < ao) then hit else acc)
      None results
  in
  match best with None -> Ok () | Some (_, _, msg) -> Error msg

(* A committed transaction S "diverges" on x if it has an external read
   R(x, v) and a final write W(x, _): it extends the version chain of the
   writer of v.  Two extenders of the same (x, v) form the pattern. *)
let scan (idx : Index.t) ~all =
  let first_extender : (Op.key * Op.value, Txn.id * Op.value) Hashtbl.t =
    Hashtbl.create 64
  in
  let found = ref [] in
  let exception Hit in
  (try
     Array.iter
       (fun (s : Txn.t) ->
         List.iter
           (fun (k, v) ->
             match Ref_txn.write_of s k with
             | None -> ()
             | Some v_new -> (
                 match Hashtbl.find_opt first_extender (k, v) with
                 | None -> Hashtbl.replace first_extender (k, v) (s.id, v_new)
                 | Some (other, v_other) ->
                     let writer =
                       match Index.writer_of idx k v with
                       | Index.Final w -> w
                       | Index.Intermediate w | Index.Aborted w -> w
                       | Index.Nobody -> -1
                     in
                     found :=
                       {
                         key = k;
                         writer;
                         reader1 = (other, v_other);
                         reader2 = (s.id, v_new);
                       }
                       :: !found;
                     if not all then raise Hit))
           (Ref_txn.external_reads s))
       idx.committed
   with Hit -> ());
  List.rev !found

(* Key-striped first-instance scan: a diverging pair lives entirely on
   one key, so stripes are independent; each tracks the (committed
   position, external-read rank) of its first hit and the global minimum
   reproduces the sequential scan order exactly. *)
let num_stripes = 8

let find_striped ?pool (idx : Index.t) =
  let results =
    Pool.map_slices pool ~n:num_stripes (fun lo hi ->
        let best = ref None in
        for stripe = lo to hi - 1 do
          let first_extender : (Op.key * Op.value, Txn.id * Op.value) Hashtbl.t
              =
            Hashtbl.create 64
          in
          (try
             Array.iteri
               (fun sv (s : Txn.t) ->
                 List.iteri
                   (fun ri (k, v) ->
                     if k mod num_stripes = stripe then
                       match Ref_txn.write_of s k with
                       | None -> ()
                       | Some v_new -> (
                           match Hashtbl.find_opt first_extender (k, v) with
                           | None ->
                               Hashtbl.replace first_extender (k, v)
                                 (s.id, v_new)
                           | Some (other, v_other) ->
                               let writer =
                                 match Index.writer_of idx k v with
                                 | Index.Final w -> w
                                 | Index.Intermediate w | Index.Aborted w -> w
                                 | Index.Nobody -> -1
                               in
                               let inst =
                                 {
                                   key = k;
                                   writer;
                                   reader1 = (other, v_other);
                                   reader2 = (s.id, v_new);
                                 }
                               in
                               (match !best with
                               | Some (bsv, bri, _)
                                 when bsv < sv || (bsv = sv && bri < ri) ->
                                   ()
                               | Some _ | None -> best := Some (sv, ri, inst));
                               raise Exit))
                   (Ref_txn.external_reads s))
               idx.committed
           with Exit -> ())
        done;
        !best)
  in
  let best =
    Array.fold_left
      (fun acc hit ->
        match (acc, hit) with
        | None, hit -> hit
        | Some _, None -> acc
        | Some (ai, ar, _), Some (bi, br, _) ->
            if bi < ai || (bi = ai && br < ar) then hit else acc)
      None results
  in
  Option.map (fun (_, _, inst) -> inst) best

let find ?pool idx =
  match pool with
  | Some _ -> find_striped ?pool idx
  | None -> ( match scan idx ~all:false with [] -> None | i :: _ -> Some i)

let find_all idx = scan idx ~all:true
