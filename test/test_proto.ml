(* Tests for the coherence protocols: Stache transitions, directory
   invariants, bulk coalescing, and the write-update baseline. *)

open Ccdsm_util
module Machine = Ccdsm_tempest.Machine
module Network = Ccdsm_tempest.Network
module Tag = Ccdsm_tempest.Tag
module Directory = Ccdsm_proto.Directory
module Engine = Ccdsm_proto.Engine
module Bulk = Ccdsm_proto.Bulk
module Write_update = Ccdsm_proto.Write_update
module Cost = Ccdsm_proto.Cost
module Trace = Ccdsm_tempest.Trace

let check = Alcotest.check
let tag = Alcotest.testable Tag.pp Tag.equal

let stache_machine ?(num_nodes = 4) ?(block_bytes = 32) () =
  let m = Machine.create (Machine.default_config ~num_nodes ~block_bytes ()) in
  let eng, _coh = Engine.stache m in
  (m, eng)

let dir_ok eng b =
  match Directory.check_invariant eng.Engine.dir b with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* -- Bulk ----------------------------------------------------------------- *)

let test_bulk_runs () =
  check
    Alcotest.(list (pair int int))
    "empty" [] (Bulk.runs []);
  check
    Alcotest.(list (pair int int))
    "single" [ (5, 1) ] (Bulk.runs [ 5 ]);
  check
    Alcotest.(list (pair int int))
    "runs merge and sort"
    [ (1, 3); (7, 1); (9, 2) ]
    (Bulk.runs [ 9; 1; 3; 2; 7; 10; 2 ]);
  check Alcotest.int "message count" 3 (Bulk.message_count [ 9; 1; 3; 2; 7; 10; 2 ])

let test_bulk_runs_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"bulk runs cover exactly the input set"
       QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 60))
       (fun blocks ->
         let expanded =
           List.concat_map (fun (s, l) -> List.init l (fun k -> s + k)) (Bulk.runs blocks)
         in
         expanded = List.sort_uniq compare blocks))

let test_bulk_runs_of_array_pure () =
  (* Regression: [runs_of_array] used to sort its argument in place, visibly
     reordering a caller's array. *)
  let a = [| 9; 1; 3; 2; 7; 10; 2 |] in
  let before = Array.copy a in
  check
    Alcotest.(list (pair int int))
    "runs" [ (1, 3); (7, 1); (9, 2) ] (Bulk.runs_of_array a);
  check Alcotest.(array int) "argument untouched" before a

(* -- Stache read path ----------------------------------------------------- *)

let test_read_2hop () =
  let m, eng = stache_machine () in
  let a = Machine.alloc m ~words:4 ~home:0 in
  let b = Machine.block_of m a in
  Machine.poke m a 2.5;
  check (Alcotest.float 0.0) "remote read sees data" 2.5 (Machine.read m ~node:1 a);
  check tag "requester ReadOnly" Tag.Read_only (Machine.tag m ~node:1 b);
  check tag "home downgraded" Tag.Read_only (Machine.tag m ~node:0 b);
  dir_ok eng b;
  (* Cost: fault + ctrl request + data reply, all charged to the reader. *)
  let net = Machine.net m in
  let expect =
    net.Network.fault_us
    +. Network.msg_cost net ~bytes:net.Network.ctrl_bytes
    +. Network.msg_cost net ~bytes:32
  in
  check (Alcotest.float 1e-9) "2-hop latency" expect
    (Machine.bucket_time m ~node:1 Machine.Remote_wait);
  check Alcotest.int "requester sent 1 msg" 1 (Machine.counters m ~node:1).Machine.msgs;
  check Alcotest.int "home sent 1 msg" 1 (Machine.counters m ~node:0).Machine.msgs

let test_read_4hop () =
  let m, eng = stache_machine () in
  let a = Machine.alloc m ~words:4 ~home:0 in
  let b = Machine.block_of m a in
  (* Node 2 becomes the writer, then node 1 reads: producer, consumer and
     home all distinct = the 4-message chain. *)
  Machine.write m ~node:2 a 1.0;
  Machine.reset_stats m;
  ignore (Machine.read m ~node:1 a);
  dir_ok eng b;
  check tag "writer downgraded" Tag.Read_only (Machine.tag m ~node:2 b);
  let net = Machine.net m in
  let expect =
    net.Network.fault_us
    +. (2.0 *. Network.msg_cost net ~bytes:net.Network.ctrl_bytes)
    +. (2.0 *. Network.msg_cost net ~bytes:32)
  in
  check (Alcotest.float 1e-9) "4-hop latency" expect
    (Machine.bucket_time m ~node:1 Machine.Remote_wait);
  check Alcotest.int "downgrade counted" 1 (Machine.counters m ~node:2).Machine.downgrades

let test_read_at_home_faults_cheaply () =
  let m, eng = stache_machine () in
  let a = Machine.alloc m ~words:4 ~home:0 in
  let b = Machine.block_of m a in
  Machine.write m ~node:2 a 1.0;
  Machine.reset_stats m;
  ignore (Machine.read m ~node:0 a);
  dir_ok eng b;
  (* Home recalls from the writer: 2 messages. *)
  check Alcotest.int "messages" 2 (Machine.total_counters m).Machine.msgs

let test_multiple_readers () =
  let m, eng = stache_machine () in
  let a = Machine.alloc m ~words:4 ~home:0 in
  let b = Machine.block_of m a in
  ignore (Machine.read m ~node:1 a);
  ignore (Machine.read m ~node:2 a);
  ignore (Machine.read m ~node:3 a);
  dir_ok eng b;
  (match Directory.get eng.Engine.dir b with
  | Directory.Shared readers ->
      check Alcotest.(list int) "all readers recorded" [ 0; 1; 2; 3 ] (Nodeset.elements readers)
  | Directory.Exclusive _ -> Alcotest.fail "expected Shared")

(* -- Stache write path ---------------------------------------------------- *)

let test_write_invalidates_readers () =
  let m, eng = stache_machine () in
  let a = Machine.alloc m ~words:4 ~home:0 in
  let b = Machine.block_of m a in
  ignore (Machine.read m ~node:1 a);
  ignore (Machine.read m ~node:2 a);
  Machine.reset_stats m;
  Machine.write m ~node:3 a 8.0;
  dir_ok eng b;
  check tag "writer RW" Tag.Read_write (Machine.tag m ~node:3 b);
  check tag "reader 1 invalid" Tag.Invalid (Machine.tag m ~node:1 b);
  check tag "reader 2 invalid" Tag.Invalid (Machine.tag m ~node:2 b);
  check tag "home invalid" Tag.Invalid (Machine.tag m ~node:0 b);
  check Alcotest.int "invalidations counted" 1 (Machine.counters m ~node:1).Machine.invalidations;
  (* Each remote reader got an inval and acked it. *)
  check Alcotest.int "reader acks" 1 (Machine.counters m ~node:1).Machine.msgs;
  check Alcotest.int "reader acks" 1 (Machine.counters m ~node:2).Machine.msgs

let test_write_upgrade_cheaper_than_miss () =
  let m, _eng = stache_machine () in
  let a = Machine.alloc m ~words:4 ~home:0 in
  (* Case A: node 1 upgrades from ReadOnly. *)
  ignore (Machine.read m ~node:1 a);
  Machine.reset_stats m;
  Machine.write m ~node:1 a 1.0;
  let upgrade = Machine.bucket_time m ~node:1 Machine.Remote_wait in
  (* Case B: node 2 write-misses with no copy (data must travel). *)
  Machine.reset_stats m;
  Machine.write m ~node:2 a 2.0;
  let full = Machine.bucket_time m ~node:2 Machine.Remote_wait in
  Alcotest.(check bool)
    (Printf.sprintf "upgrade (%g) < full miss (%g)" upgrade full)
    true (upgrade < full)

let test_write_migration () =
  let m, eng = stache_machine () in
  let a = Machine.alloc m ~words:4 ~home:0 in
  let b = Machine.block_of m a in
  Machine.write m ~node:1 a 1.0;
  Machine.write m ~node:2 a 2.0;
  Machine.write m ~node:3 a 3.0;
  dir_ok eng b;
  check tag "final writer" Tag.Read_write (Machine.tag m ~node:3 b);
  check (Alcotest.float 0.0) "final value" 3.0 (Machine.peek m a);
  check Alcotest.int "two invalidations of stale writers" 1
    (Machine.counters m ~node:1).Machine.invalidations

let test_home_write_after_sharing () =
  let m, eng = stache_machine () in
  let a = Machine.alloc m ~words:4 ~home:0 in
  let b = Machine.block_of m a in
  ignore (Machine.read m ~node:1 a);
  ignore (Machine.read m ~node:2 a);
  (* Home upgrades its own copy: invalidations travel, but no request leg. *)
  Machine.reset_stats m;
  Machine.write m ~node:0 a 5.0;
  dir_ok eng b;
  check tag "home RW" Tag.Read_write (Machine.tag m ~node:0 b);
  (* 2 invals + 2 acks, no request/reply. *)
  check Alcotest.int "messages" 4 (Machine.total_counters m).Machine.msgs

let test_sc_read_your_writes () =
  let m, _ = stache_machine () in
  let a = Machine.alloc m ~words:4 ~home:0 in
  Machine.write m ~node:2 a 42.0;
  check (Alcotest.float 0.0) "reader sees last write" 42.0 (Machine.read m ~node:1 a);
  Machine.write m ~node:3 a 43.0;
  check (Alcotest.float 0.0) "home sees last write" 43.0 (Machine.read m ~node:0 a)

(* Sequential-consistency sanity under a random access stream: the DSM must
   behave exactly like one flat memory. *)
let test_random_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"stache DSM equals flat memory"
       QCheck2.Gen.(
         pair (int_range 0 10000)
           (list_size (int_range 1 200) (triple (int_range 0 3) (int_range 0 31) bool)))
       (fun (seed, ops) ->
         let m, eng = stache_machine () in
         let base = Machine.alloc m ~words:16 ~home:0 in
         let _ = Machine.alloc m ~words:16 ~home:1 in
         let flat = Array.make 32 0.0 in
         let g = Prng.create ~seed in
         let ok = ref true in
         List.iter
           (fun (node, idx, is_write) ->
             if is_write then begin
               let v = Prng.float g 100.0 in
               flat.(idx) <- v;
               Machine.write m ~node (base + idx) v
             end
             else begin
               let got = Machine.read m ~node (base + idx) in
               if got <> flat.(idx) then ok := false
             end)
           ops;
         for b = 0 to Machine.num_blocks m - 1 do
           match Directory.check_invariant eng.Engine.dir b with
           | Ok () -> ()
           | Error _ -> ok := false
         done;
         !ok))

(* -- Write-update baseline ------------------------------------------------ *)

let wu_machine () =
  let m = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) in
  let coh = Write_update.coherence m in
  (m, coh)

let test_wu_subscription_and_update () =
  let m, coh = wu_machine () in
  let a = Machine.alloc m ~words:4 ~home:0 in
  (* Producer writes, consumers subscribe by reading. *)
  Machine.write m ~node:0 a 1.0;
  ignore (Machine.read m ~node:1 a);
  ignore (Machine.read m ~node:2 a);
  coh.Ccdsm_proto.Coherence.phase_end ~phase:0;
  Machine.reset_stats m;
  (* Next phase: producer writes again (local re-arm fault), consumers read
     without any fault. *)
  Machine.write m ~node:0 a 2.0;
  coh.Ccdsm_proto.Coherence.phase_end ~phase:0;
  check (Alcotest.float 0.0) "consumer 1 fresh read, no fault" 2.0 (Machine.read m ~node:1 a);
  check (Alcotest.float 0.0) "consumer 2 fresh read, no fault" 2.0 (Machine.read m ~node:2 a);
  let c1 = Machine.counters m ~node:1 in
  check Alcotest.int "no consumer read faults" 0 c1.Machine.read_faults;
  (* The producer pushed one update message per consumer. *)
  let stats = coh.Ccdsm_proto.Coherence.stats () in
  let msgs = List.assoc "update_msgs" stats in
  check (Alcotest.float 0.0) "two update messages" 2.0 msgs

let test_wu_rearm_is_local () =
  let m, coh = wu_machine () in
  let a = Machine.alloc m ~words:4 ~home:0 in
  Machine.write m ~node:0 a 1.0;
  ignore (Machine.read m ~node:1 a);
  coh.Ccdsm_proto.Coherence.phase_end ~phase:0;
  Machine.reset_stats m;
  Machine.write m ~node:0 a 2.0;
  (* Re-arm fault costs only the fault overhead, no messages. *)
  let net = Machine.net m in
  check (Alcotest.float 1e-9) "local re-arm cost" net.Network.fault_us
    (Machine.bucket_time m ~node:0 Machine.Remote_wait);
  check Alcotest.int "no messages" 0 (Machine.total_counters m).Machine.msgs

let test_wu_ownership_migration () =
  let m, coh = wu_machine () in
  let a = Machine.alloc m ~words:4 ~home:0 in
  Machine.write m ~node:1 a 1.0;
  let stats = coh.Ccdsm_proto.Coherence.stats () in
  check (Alcotest.float 0.0) "migration counted" 1.0 (List.assoc "ownership_migrations" stats);
  check (Alcotest.float 0.0) "value" 1.0 (Machine.peek m a)

let test_wu_update_coalescing () =
  let m, coh = wu_machine () in
  (* Two adjacent blocks, same producer and consumer: one bulk message. *)
  let a = Machine.alloc m ~words:8 ~home:0 in
  Machine.write m ~node:0 a 1.0;
  Machine.write m ~node:0 (a + 4) 2.0;
  ignore (Machine.read m ~node:1 a);
  ignore (Machine.read m ~node:1 (a + 4));
  coh.Ccdsm_proto.Coherence.phase_end ~phase:0;
  Machine.write m ~node:0 a 3.0;
  Machine.write m ~node:0 (a + 4) 4.0;
  let before = (Machine.total_counters m).Machine.msgs in
  coh.Ccdsm_proto.Coherence.phase_end ~phase:0;
  let after = (Machine.total_counters m).Machine.msgs in
  check Alcotest.int "one coalesced update message" 1 (after - before);
  let stats = coh.Ccdsm_proto.Coherence.stats () in
  check (Alcotest.float 0.0) "blocks updated" 2.0 (List.assoc "update_blocks" stats)

(* -- Cost ------------------------------------------------------------------ *)

(* The counts and prices [Cost] hands the analytical model must describe the
   legs it hands the engine: same message count, same payload, and a price
   that is the legs' message costs added up. *)
let test_cost_shapes () =
  List.iter
    (fun (net, block_bytes) ->
      let c = Cost.make net ~block_bytes in
      let legs_us legs =
        List.fold_left (fun acc (_, _, _, bytes) -> acc +. Network.msg_cost net ~bytes) 0.0 legs
      in
      let legs_bytes legs = List.fold_left (fun acc (_, _, _, bytes) -> acc + bytes) 0 legs in
      List.iter
        (fun (name, f) ->
          let legs = Cost.fetch_legs c f ~node:1 ~home:2 ~owner:3 in
          check Alcotest.int (name ^ " msgs") (List.length legs) (Cost.fetch_msgs f);
          check Alcotest.int (name ^ " bytes") (legs_bytes legs) (Cost.fetch_bytes c f);
          check (Alcotest.float 1e-9) (name ^ " us") (legs_us legs) (Cost.fetch_us c f))
        Cost.
          [
            ("reply", Reply);
            ("recall", Recall);
            ("chain", Chain);
            ("forward", Forward);
            ("upgrade", Upgrade);
          ];
      let one = ref [] in
      Cost.iter_inval_legs c ~home:0 ~victim:1 (fun s d k b -> one := (s, d, k, b) :: !one);
      let one = List.rev !one in
      List.iter
        (fun k ->
          check Alcotest.int "inval msgs" (k * List.length one) (Cost.inval_msgs k);
          check Alcotest.int "inval bytes" (k * legs_bytes one) (Cost.inval_bytes c k))
        [ 1; 2; 5 ];
      (* One victim is one plain round trip; each extra overlapped notice
         adds less than a message of its own. *)
      check (Alcotest.float 1e-9) "one inval" (legs_us one) (Cost.inval_us c 1);
      Alcotest.(check bool) "overlap" true (Cost.inval_us c 2 -. Cost.inval_us c 1 < legs_us one))
    [ (Network.default, 32); (Network.default, 256); (Network.hardware_dsm, 64) ]

(* A flush of every queue kind, coalesced and not: order, kinds, sizes and
   the grant counts behind the presend stats. *)
let test_cost_flush () =
  let c = Cost.make Network.default ~block_bytes:32 in
  let q = Cost.queues () in
  List.iter (Cost.push q.Cost.recall (3, 1)) [ 9; 5; 6 ];
  Cost.bump q.Cost.inval (1, 2);
  Cost.bump q.Cost.inval (1, 2);
  List.iter (Cost.push q.Cost.data (1, 0)) [ 6; 5 ];
  Cost.bump q.Cost.grant (1, 0);
  Cost.bump q.Cost.grant (1, 2);
  let shape (g : Cost.msg) =
    ( g.Cost.payer,
      g.Cost.src,
      g.Cost.dst,
      Trace.msg_kind_name g.Cost.kind,
      g.Cost.bytes,
      g.Cost.grants )
  in
  let t6 = Alcotest.(list (pair (triple int int int) (triple string int int))) in
  let split l = List.map (fun (a, b, c, d, e, f) -> ((a, b, c), (d, e, f))) l in
  let ctrl = Cost.ctrl c in
  (* coalesced: blocks 5,6,9 are two runs (2 headers); 5,6 one run *)
  check t6 "coalesced"
    (split
       [
         (1, 1, 3, "recall", ctrl, 0);
         (1, 3, 1, "data", ctrl + (3 * 32) + 16, 0);
         (1, 1, 2, "inval", ctrl + 8, 0);
         (1, 2, 1, "ack", ctrl, 0);
         (1, 1, 0, "data", ctrl + (2 * 32) + 8 + 4, 2);
         (1, 1, 2, "grant", ctrl + 4, 0);
       ])
    (split (List.map shape (Cost.flush c ~coalesce:true q)));
  check t6 "uncoalesced"
    (split
       [
         (1, 1, 3, "recall", ctrl, 0);
         (1, 3, 1, "data", ctrl + 32, 0);
         (1, 3, 1, "data", ctrl + 32, 0);
         (1, 3, 1, "data", ctrl + 32, 0);
         (1, 1, 2, "inval", ctrl + 8, 0);
         (1, 2, 1, "ack", ctrl, 0);
         (1, 1, 0, "data", ctrl + 32 + 4, 1);
         (1, 1, 0, "data", ctrl + 32, 1);
         (1, 1, 2, "grant", ctrl + 4, 0);
       ])
    (split (List.map shape (Cost.flush c ~coalesce:false q)));
  List.iter
    (fun (g : Cost.msg) ->
      check (Alcotest.float 0.0) "msg price"
        (Network.msg_cost Network.default ~bytes:g.Cost.bytes)
        g.Cost.us)
    (Cost.flush c ~coalesce:true q)

let suite =
  [
    ( "proto.cost",
      [
        Alcotest.test_case "fetch and invalidation shapes" `Quick test_cost_shapes;
        Alcotest.test_case "presend flush messages" `Quick test_cost_flush;
      ] );
    ( "proto.bulk",
      [
        Alcotest.test_case "runs" `Quick test_bulk_runs;
        test_bulk_runs_prop;
        Alcotest.test_case "runs_of_array leaves argument intact" `Quick
          test_bulk_runs_of_array_pure;
      ] );
    ( "proto.stache",
      [
        Alcotest.test_case "read 2-hop" `Quick test_read_2hop;
        Alcotest.test_case "read 4-hop" `Quick test_read_4hop;
        Alcotest.test_case "home read recall" `Quick test_read_at_home_faults_cheaply;
        Alcotest.test_case "multiple readers" `Quick test_multiple_readers;
        Alcotest.test_case "write invalidates readers" `Quick test_write_invalidates_readers;
        Alcotest.test_case "upgrade cheaper than miss" `Quick test_write_upgrade_cheaper_than_miss;
        Alcotest.test_case "write migration" `Quick test_write_migration;
        Alcotest.test_case "home write after sharing" `Quick test_home_write_after_sharing;
        Alcotest.test_case "read your writes" `Quick test_sc_read_your_writes;
        test_random_equivalence;
      ] );
    ( "proto.write_update",
      [
        Alcotest.test_case "subscription and update" `Quick test_wu_subscription_and_update;
        Alcotest.test_case "re-arm is local" `Quick test_wu_rearm_is_local;
        Alcotest.test_case "ownership migration" `Quick test_wu_ownership_migration;
        Alcotest.test_case "update coalescing" `Quick test_wu_update_coalescing;
      ] );
  ]
