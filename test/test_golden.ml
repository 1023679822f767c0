(* Golden bytes of every durable and wire format the checking service
   writes: a WAL file, a snapshot file, [Open_session] frames and
   [Online.encode] blobs, each compared byte for byte against literals
   captured from a known-good build.  Round-trip tests cannot catch a
   format change that the encoder and decoder make symmetrically; these
   can.  A deliberate format change must bump the format's version and
   re-capture the literal. *)

let checks = Alcotest.check Alcotest.string

let checkb = Alcotest.check Alcotest.bool

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))

let unhex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp suffix f =
  let path = Filename.temp_file "mtc-golden" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Fixtures: fixed by hand, so no generator change can move the bytes. *)

let txns =
  [
    Txn.make ~id:1 ~session:1 ~start_ts:1 ~commit_ts:2
      [ Op.Read (0, 0); Op.Write (0, 1) ];
    Txn.make ~id:2 ~session:2 ~start_ts:3 ~commit_ts:4
      [ Op.Read (1, 0); Op.Write (1, 2) ];
    Txn.make ~id:3 ~session:1 ~start_ts:5 ~commit_ts:6
      [ Op.Read (0, 1); Op.Read (1, 2); Op.Write (0, 3) ];
    Txn.make ~id:4 ~session:2 ~status:Txn.Aborted ~start_ts:7 ~commit_ts:8
      [ Op.Read (2, 0); Op.Write (2, 9) ];
  ]

let checker ?(ts = Ts.Ignore) ?(gc = Online.Gc_off) level =
  let o = Online.create ~skew:0 ~ts ~gc ~level ~num_keys:4 () in
  List.iter
    (fun t ->
      match Online.add_txn o t with
      | Online.Ok_so_far -> ()
      | Online.Violation _ -> Alcotest.fail "golden fixture must be clean")
    txns;
  o

let levels = [ Checker.SSER; Checker.SER; Checker.SI ]
let modes = [ Ts.Ignore; Ts.Trust; Ts.Verify ]
let gcs = [ Online.Gc_off; Online.Gc_auto; Online.Gc_words 4096 ]

(* One [R_open] per level x ts mode x gc policy (27 sessions, skews of
   both signs), then feeds and a close. *)
let wal_records =
  List.concat_map
    (fun (i, level) ->
      List.concat_map
        (fun (j, ts) ->
          List.map
            (fun (k, gc) ->
              let sid = 1 + (9 * i) + (3 * j) + k in
              Wal.R_open
                {
                  sid;
                  params =
                    { level; num_keys = 4 + sid; skew = sid - 14; ts; gc };
                })
            (List.mapi (fun k gc -> (k, gc)) gcs))
        (List.mapi (fun j ts -> (j, ts)) modes))
    (List.mapi (fun i level -> (i, level)) levels)
  @ List.mapi (fun i txn -> Wal.R_feed { sid = 5; seq = i + 1; txn }) txns
  @ [ Wal.R_close { sid = 5 } ]

let snapshot_entries () =
  let entry sid level ts gc last_seq state =
    {
      Session_state.sid;
      params = { level; num_keys = 4; skew = 0; ts; gc };
      last_seq;
      state;
    }
  in
  [
    entry 2 Checker.SER Ts.Ignore Online.Gc_off 4 (Live (checker Checker.SER));
    entry 4 Checker.SI Ts.Trust Online.Gc_auto 4
      (Live (checker ~ts:Ts.Trust ~gc:Online.Gc_auto Checker.SI));
    entry 6 Checker.SSER Ts.Verify (Online.Gc_words 4096) 4
      (Live
         (checker ~ts:Ts.Verify ~gc:(Online.Gc_words 4096) Checker.SSER));
    entry 8 Checker.SI Ts.Ignore Online.Gc_off 17
      (Poisoned
         {
           anomaly = Some "LOSTUPDATE";
           rendered = "SI violation [LOSTUPDATE]: boom";
         });
    entry 10 Checker.SER Ts.Ignore Online.Gc_off 3
      (Poisoned { anomaly = None; rendered = "SER violation: cycle" });
  ]

(* ------------------------------------------------------------------ *)
(* Literals. *)

let golden_wal =
  "6d746377616c310a0400000002010203984eb0210700000001010005190000a2\
   6f6ed407000000010200061700017eafd63d09000000010300071500028020a9\
   4391c907000000010400081301005b924562070000000105000911010163c226\
   65090000000106000a0f0102802055b603af070000000107000b0d0200a292f1\
   cb070000000108000c0b0201ea54fad4090000000109000d09020280200fced3\
   f607000000010a010e070000aabf704207000000010b010f05000192ef134509\
   000000010c01100300028020b00ab54707000000010d01110101002885994a07\
   000000010e0112000101c9027da809000000010f01130201028020283172ca07\
   0000000110011404020077f5e9ef07000000011101150602014fa58ae8090000\
   000112011608020280202e33042507000000011302170a00006f1dc004070000\
   00011402180c0001a5712c3209000000011502190e0002802054af36ca070000\
   000116021a100100e643cdae070000000117021b120101de13aea90900000001\
   18021c140102802070c31293070000000119021d160200fbe6eced0700000001\
   1a021e1802012726540409000000011b021f1a02028020b2a78c360f00000002\
   05010202000204020000000100028e1ed8400f00000002050204040006080200\
   020001020477cd4c51120000000205030602000a0c0300000200020401000656\
   37bbfd0f0000000205040804010e1002000400010412e45b2922020000000305\
   b3b59e1a"

let golden_snapshot =
  "6d7463736e70310a020002050b05020104000000040001000040044000010203\
   0405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20212223\
   2425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f02020401\
   0601060000000000000000000000000000000000000000000000000000000000\
   0000000000000000000000000000000000000000000000000000000000000000\
   0001000100020204000000000000000000000000000000000000000000000000\
   0000000000000000000000000000000000000000000000000000000000000000\
   0000000004020104018680808010018680808020080404000204060400000603\
   020104020407000004001803080106001202020000014c040004040000120308\
   0202010402040606040101010100040300000802020103020406030101010004\
   000000020402020305000106010201040108010000ffffffffffffffff7f0400\
   000000000000000000000000040418120406080201010000014c000100030204\
   010200020608020c100402040001010400020001400840000102030405060708\
   090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728\
   292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f020408020408010c01\
   0c010c010c000000000000000000000000000000000000000000000000000000\
   0000000000000000000000000000000000000000000000000000000000000000\
   000200020002000200040406080a000000000000000000000000000000000000\
   0000000000000000000000000000000000000000000000000000000000000000\
   000000000000000884808080100104018c80808030018c80808020018c808080\
   50088880808010018c8080804008080108080000020204040606040000060602\
   0204040407000004001803080106001202020000014c04000404000012030802\
   0201040204060604010101010004030000080202010302040603010101000403\
   0000080202010602020404060600020402020305000106010201040108010000\
   0c0404000606030205040207ffffffffffffffff7fffffffffffffffff7fffff\
   ffffffffffff7fffffffffffffffff7f04080c07000000000204060700000000\
   0204060701010101000208000400010000000008041812040608020101000001\
   4c000100030204010200020608020c1006000400020280200400000002400b40\
   000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f\
   202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f\
   02020602040a02060802080a020a0c010c000000000000000000000000000000\
   0000000000000000000000000000000000000000000000000000000000000000\
   0000000000000000000000000100010202000402060403020608020a08000000\
   0000000000000000000000000000000000000000000000000000000000000000\
   000000000000000000000000000000000000000000000b060102018480808010\
   028a80808010018880808030028a80808030088880808020028a80808040028c\
   80808050028c8080804002868080802002070700020104010601040000060502\
   0104030407000004001803080106001202020000014c04000404000012030802\
   0201040204060604010101010004030000080202010302040603010101000400\
   0000020402020305000106010201040108010304080c0304080c0c0404000606\
   030205040207ffffffffffffffff7fffffffffffffffff7fffffffffffffffff\
   7fffffffffffffffff7f04080c07000000000204060700000000020406070101\
   010100020804000000000400028020000000070418120406080201010000014c\
   000100030204010200020608020c100802040000001101010a4c4f5354555044\
   4154451f53492076696f6c6174696f6e205b4c4f53545550444154455d3a2062\
   6f6f6d0a0104000000030100145345522076696f6c6174696f6e3a206379636c\
   657b2ea4e3"

let golden_online_si =
  "020000400840000102030405060708090a0b0c0d0e0f10111213141516171819\
   1a1b1c1d1e1f202122232425262728292a2b2c2d2e2f30313233343536373839\
   3a3b3c3d3e3f020408020408010c010c010c010c000000000000000000000000\
   0000000000000000000000000000000000000000000000000000000000000000\
   000000000000000000000000000000000200020002000200040406080a000000\
   0000000000000000000000000000000000000000000000000000000000000000\
   000000000000000000000000000000000000000000000884808080100104018c\
   80808030018c80808020018c80808050088880808010018c8080804008080108\
   0800000202040406060400000606020204040407000004001803080106001202\
   020000014c040004040000120308020201040204060604010101010004030000\
   0802020103020406030101010004030000080202010602020404060600020402\
   020305000106010201040108010000ffffffffffffffff7f0400000000000000\
   000000000000080418120406080201010000014c000100030204010200020608\
   020c10"

let golden_online_sser =
  "000002400b40000102030405060708090a0b0c0d0e0f10111213141516171819\
   1a1b1c1d1e1f202122232425262728292a2b2c2d2e2f30313233343536373839\
   3a3b3c3d3e3f02020602040a02060802080a020a0c010c000000000000000000\
   0000000000000000000000000000000000000000000000000000000000000000\
   0000000000000000000000000000000000000100010202000402060403020608\
   020a080000000000000000000000000000000000000000000000000000000000\
   000000000000000000000000000000000000000000000000000000000b060102\
   018480808010028a80808010018880808030028a80808030088880808020028a\
   80808040028c80808050028c8080804002868080802002070700020104010601\
   0400000605020104030407000004001803080106001202020000014c04000404\
   0000120308020201040204060604010101010004030000080202010302040603\
   0101010004000000020402020305000106010201040108010304080c0304080c\
   0c0404000606030205040207ffffffffffffffff7fffffffffffffffff7fffff\
   ffffffffffff7fffffffffffffffff7f04080c07000000000204060700000000\
   0204060701010101000208040000000004000280200000000704181204060802\
   01010000014c000100030204010200020608020c10"

let golden_open_frames =
  [
    "000000070302ac02030200";
    "000000070302ac02030201";
    "000000070302ac02030202";
    "0000000a0302ac02030203f0a204";
  ]

(* ------------------------------------------------------------------ *)
(* Tests. *)

let test_wal_bytes () =
  with_temp ".wal" (fun path ->
      let w = Wal.create ~path ~shard:1 ~nshards:2 ~gen:3 ~sync:Wal.Off () in
      List.iter (fun r -> ignore (Wal.append w r)) wal_records;
      Wal.close w;
      checks "WAL bytes" golden_wal (hex (read_file path));
      (* and the captured file reads back as the same records *)
      match Wal.read_path path with
      | Ok (_, rs, Wal.Complete) ->
          checkb "golden WAL decodes to the fixture" true (rs = wal_records)
      | Ok _ -> Alcotest.fail "golden WAL must read Complete"
      | Error e -> Alcotest.fail e)

let test_snapshot_bytes () =
  with_temp ".snap" (fun path ->
      let write entries =
        Snapshot_store.write ~path ~shard:0 ~nshards:2 ~gen:5 ~next_sid:11
          entries
      in
      let entries = snapshot_entries () in
      write entries;
      checks "snapshot bytes" golden_snapshot (hex (read_file path));
      (* the captured bytes read back as the fixture's sessions (a
         decoded checker's hash layout may differ, so compare what a
         session exposes rather than re-encoding) *)
      let oc = open_out_bin path in
      output_string oc (unhex golden_snapshot);
      close_out oc;
      let summary (e : Session_state.t) =
        ( e.sid,
          e.params,
          e.last_seq,
          match e.state with
          | Live o -> `Live (Online.txns_seen o, Online.gc_policy o)
          | Poisoned { anomaly; rendered } -> `Poisoned (anomaly, rendered) )
      in
      match Snapshot_store.read path with
      | Error e -> Alcotest.fail e
      | Ok info ->
          checkb "golden snapshot decodes to the fixture" true
            (List.map summary info.Snapshot_store.i_entries
            = List.map summary entries))

let test_open_session_frames () =
  List.iter2
    (fun gc want ->
      let buf = Buffer.create 64 in
      Wire.encode ~scratch:(Buffer.create 64) buf
        (Wire.Open_session
           { level = Checker.SI; num_keys = 300; skew = -2; ts = Ts.Verify;
             gc });
      checks "Open_session frame" want (hex (Buffer.contents buf)))
    [
      None; Some Online.Gc_off; Some Online.Gc_auto;
      Some (Online.Gc_words 70000);
    ]
    golden_open_frames

let test_online_encode () =
  let enc o =
    let buf = Buffer.create 256 in
    Online.encode buf o;
    hex (Buffer.contents buf)
  in
  checks "SI checker" golden_online_si (enc (checker Checker.SI));
  checks "SSER checker, ts verify, gc words" golden_online_sser
    (enc (checker ~ts:Ts.Verify ~gc:(Online.Gc_words 4096) Checker.SSER))

let suite =
  [
    ("WAL file bytes", `Quick, test_wal_bytes);
    ("snapshot file bytes", `Quick, test_snapshot_bytes);
    ("Open_session frame bytes", `Quick, test_open_session_frames);
    ("Online.encode bytes", `Quick, test_online_encode);
  ]
