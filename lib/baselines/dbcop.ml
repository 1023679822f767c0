type result = {
  serializable : bool;
  states : int;
  gave_up : bool;
  invalid : string option;
}

exception Budget

let check ?(max_states = 2_000_000) (h : History.t) =
  let fail_invalid msg =
    { serializable = false; states = 0; gave_up = false; invalid = Some msg }
  in
  match (History.validate h, Int_check.check (Index.build h)) with
  | Error msg, _ -> fail_invalid msg
  | Ok (), Error v ->
      (* G1-style violations: no serialization exists. *)
      {
        serializable = false;
        states = 0;
        gave_up = false;
        invalid =
          Some (Format.asprintf "screen: %a" Int_check.pp_violation v);
      }
  | Ok (), Ok () ->
      let sessions =
        Array.init h.History.num_sessions (fun i ->
            History.session_chain h (i + 1)
            |> List.map (History.txn h)
            |> Array.of_list)
      in
      let k = Array.length sessions in
      let store = Array.make h.History.num_keys 0 in
      let visited : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
      let states = ref 0 in
      let frontier = Array.make k 0 in
      let key_of () =
        String.concat "," (Array.to_list (Array.map string_of_int frontier))
      in
      let applicable (t : Txn.t) =
        let ok = ref true in
        Txn.iter_external_reads t (fun _ key v ->
            if store.(key) <> v then ok := false);
        !ok
      in
      (* Final writes name distinct keys, so each can be applied as it
         is recorded for undo. *)
      let apply (t : Txn.t) =
        let undo = ref [] in
        Txn.iter_final_writes t (fun _ key v ->
            undo := (key, store.(key)) :: !undo;
            store.(key) <- v);
        !undo
      in
      let unapply undo = List.iter (fun (key, old) -> store.(key) <- old) undo in
      let total = Array.fold_left (fun n s -> n + Array.length s) 0 sessions in
      let rec search scheduled =
        if scheduled = total then true
        else begin
          let key = key_of () in
          if Hashtbl.mem visited key then false
          else begin
            Hashtbl.replace visited key ();
            incr states;
            if !states > max_states then raise Budget;
            let rec try_session i =
              if i >= k then false
              else
                let pos = frontier.(i) in
                if pos < Array.length sessions.(i) && applicable sessions.(i).(pos)
                then begin
                  let undo = apply sessions.(i).(pos) in
                  frontier.(i) <- pos + 1;
                  let ok = search (scheduled + 1) in
                  frontier.(i) <- pos;
                  unapply undo;
                  ok || try_session (i + 1)
                end
                else try_session (i + 1)
            in
            try_session 0
          end
        end
      in
      (try
         let ok = search 0 in
         { serializable = ok; states = !states; gave_up = false; invalid = None }
       with Budget ->
         { serializable = false; states = !states; gave_up = true;
           invalid = None })
