(* Edge cases across the substrate and runtime: degenerate machine sizes,
   odd node counts, exception safety, protocol corner behaviours. *)

module Machine = Ccdsm_tempest.Machine
module Network = Ccdsm_tempest.Network
module Tag = Ccdsm_tempest.Tag
module Coherence = Ccdsm_proto.Coherence
module Engine = Ccdsm_proto.Engine
module Runtime = Ccdsm_runtime.Runtime
module Aggregate = Ccdsm_runtime.Aggregate
module Distribution = Ccdsm_runtime.Distribution
module Adaptive = Ccdsm_apps.Adaptive
module Barnes = Ccdsm_apps.Barnes
module Water = Ccdsm_apps.Water

let check = Alcotest.check

(* -- single-node machine ----------------------------------------------------- *)

let test_single_node_no_communication () =
  let rt =
    Runtime.create ~cfg:(Machine.default_config ~num_nodes:1 ~block_bytes:32 ()) ~protocol:Runtime.Predictive ()
  in
  let m = Runtime.machine rt in
  let a = Aggregate.create_1d m ~name:"x" ~n:8 ~dist:Distribution.Block1d () in
  let ph = Runtime.make_phase rt ~name:"p" ~scheduled:true in
  for _ = 1 to 3 do
    Runtime.parallel_for_1d rt ~phase:ph a (fun ~node ~i ->
        Aggregate.write1 a ~node i ~field:0 1.0;
        ignore (Aggregate.read1 a ~node ((i + 1) mod 8) ~field:0))
  done;
  let c = Machine.total_counters m in
  check Alcotest.int "no faults on one node" 0 (c.Machine.read_faults + c.Machine.write_faults);
  check Alcotest.int "no messages" 0 c.Machine.msgs;
  check (Alcotest.float 1e-9) "no remote wait" 0.0
    (List.assoc Machine.Remote_wait (Runtime.time_breakdown rt))

let test_apps_on_odd_node_counts () =
  (* Distribution and execution must stay correct at awkward node counts. *)
  let run_adaptive p =
    let rt = Runtime.create ~cfg:(Machine.default_config ~num_nodes:p ~block_bytes:32 ()) ~protocol:Runtime.Predictive () in
    (Adaptive.run rt Adaptive.small).Adaptive.checksum
  in
  let expected = (Adaptive.reference Adaptive.small).Adaptive.checksum in
  List.iter
    (fun p -> check (Alcotest.float 0.0) (Printf.sprintf "adaptive on %d nodes" p) expected (run_adaptive p))
    [ 1; 3; 5; 7 ];
  let b_expected = (Barnes.reference Barnes.small).Barnes.checksum in
  let run_barnes p =
    let rt = Runtime.create ~cfg:(Machine.default_config ~num_nodes:p ~block_bytes:64 ()) ~protocol:Runtime.Stache () in
    (Barnes.run rt Barnes.small).Barnes.checksum
  in
  List.iter
    (fun p -> check (Alcotest.float 0.0) (Printf.sprintf "barnes on %d nodes" p) b_expected (run_barnes p))
    [ 3; 5 ];
  let run_water p =
    let rt = Runtime.create ~cfg:(Machine.default_config ~num_nodes:p ~block_bytes:32 ()) ~protocol:Runtime.Predictive () in
    (Water.run rt Water.small).Water.checksum
  in
  List.iter
    (fun p ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "water on %d nodes" p)
        (Water.reference ~nodes:p Water.small).Water.checksum (run_water p))
    [ 3; 6 ]

let test_max_node_count () =
  (* 1024 nodes (ids 0..1023) is the largest machine the Nodeset bound
     allows; one above is rejected at creation. *)
  let rt =
    Runtime.create
      ~cfg:(Machine.default_config ~num_nodes:1024 ~block_bytes:32 ())
      ~protocol:Runtime.Stache ()
  in
  let m = Runtime.machine rt in
  let a = Aggregate.create_1d m ~name:"x" ~n:2048 ~dist:Distribution.Block1d () in
  Runtime.parallel_for_1d rt a (fun ~node ~i ->
      ignore (Aggregate.read1 a ~node ((i + 2) mod 2048) ~field:0));
  Alcotest.(check bool) "runs" true (Runtime.total_time rt > 0.0);
  Alcotest.check_raises "1025 nodes rejected"
    (Invalid_argument "Machine.create: num_nodes out of range") (fun () ->
      ignore (Machine.create (Machine.default_config ~num_nodes:1025 ())))

(* -- protocol corners --------------------------------------------------------- *)

let test_phase_hooks_unbalanced () =
  (* Unbalanced or repeated phase hooks must not corrupt the protocol. *)
  let m = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) in
  let p = Ccdsm_core.Predictive.create m in
  let coh = Ccdsm_core.Predictive.coherence p in
  let a = Machine.alloc m ~words:4 ~home:0 in
  coh.Coherence.phase_end ~phase:9;
  coh.Coherence.flush_schedule ~phase:9;
  coh.Coherence.phase_begin ~phase:0;
  coh.Coherence.phase_begin ~phase:1;
  ignore (Machine.read m ~node:2 a);
  coh.Coherence.phase_end ~phase:1;
  coh.Coherence.phase_end ~phase:1;
  (* The fault landed in the innermost open phase. *)
  match Ccdsm_core.Predictive.schedule p ~phase:1 with
  | Some s -> check Alcotest.int "recorded in phase 1" 1 (Ccdsm_core.Schedule.cardinal s)
  | None -> Alcotest.fail "schedule expected"

let test_write_update_flush () =
  let m = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) in
  let coh = Ccdsm_proto.Write_update.coherence m in
  let a = Machine.alloc m ~words:4 ~home:0 in
  Machine.write m ~node:0 a 1.0;
  ignore (Machine.read m ~node:1 a);
  coh.Coherence.flush_schedule ~phase:0;
  (* After a flush there are no subscribers: the next phase_end sends no
     updates. *)
  Machine.write m ~node:0 a 2.0;
  let before = (Machine.total_counters m).Machine.msgs in
  coh.Coherence.phase_end ~phase:0;
  check Alcotest.int "no updates after flush" before (Machine.total_counters m).Machine.msgs

let test_passive_coherence () =
  let c = Coherence.passive ~name:"noop" in
  c.Coherence.phase_begin ~phase:0;
  c.Coherence.phase_end ~phase:0;
  c.Coherence.flush_schedule ~phase:0;
  check Alcotest.string "name" "noop" c.Coherence.name;
  check Alcotest.int "no stats" 0 (List.length (c.Coherence.stats ()))

let test_engine_recall_and_invalidate_direct () =
  let m = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) in
  let eng, _ = Engine.stache m in
  let a = Machine.alloc m ~words:4 ~home:0 in
  let b = Machine.block_of m a in
  Machine.write m ~node:2 a 5.0;
  (* Recall: writer downgraded, home memory current, dir Shared. *)
  Engine.recall_to_home eng ~payer:0 ~bucket:Machine.Presend b;
  check (Alcotest.testable Tag.pp Tag.equal) "writer downgraded" Tag.Read_only
    (Machine.tag m ~node:2 b);
  (* Recall again: no-op. *)
  let msgs = (Machine.total_counters m).Machine.msgs in
  Engine.recall_to_home eng ~payer:0 ~bucket:Machine.Presend b;
  check Alcotest.int "second recall free" msgs (Machine.total_counters m).Machine.msgs;
  (* Invalidate holders leaves Exclusive at the exception. *)
  ignore (Machine.read m ~node:3 a);
  Engine.invalidate_holders eng ~except:3 ~payer:0 ~bucket:Machine.Presend b;
  check (Alcotest.testable Tag.pp Tag.equal) "except kept" Tag.Read_only (Machine.tag m ~node:3 b);
  check (Alcotest.testable Tag.pp Tag.equal) "others dropped" Tag.Invalid (Machine.tag m ~node:2 b)

(* -- runtime corners ----------------------------------------------------------- *)

let test_phase_region_exception_safety () =
  let rt =
    Runtime.create ~cfg:(Machine.default_config ~num_nodes:2 ~block_bytes:32 ()) ~protocol:Runtime.Predictive ()
  in
  let ph = Runtime.make_phase rt ~name:"p" ~scheduled:true in
  (try Runtime.phase_region rt ph (fun () -> failwith "boom") with Failure _ -> ());
  (* The recording window must have been closed. *)
  match Runtime.predictive rt with
  | Some p -> Alcotest.(check bool) "phase closed" true (Ccdsm_core.Predictive.in_phase p = None)
  | None -> Alcotest.fail "predictive expected"

let test_allreduce_single_node () =
  let rt =
    Runtime.create ~cfg:(Machine.default_config ~num_nodes:1 ~block_bytes:32 ()) ~protocol:Runtime.Stache ()
  in
  check (Alcotest.float 0.0) "sum over one node" 5.0 (Runtime.allreduce_sum rt (fun _ -> 5.0))

let test_barrier_cost_charged_once_per_phase () =
  let rt =
    Runtime.create ~cfg:(Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) ~protocol:Runtime.Stache ()
  in
  let m = Runtime.machine rt in
  let a = Aggregate.create_1d m ~name:"x" ~n:4 ~dist:Distribution.Block1d () in
  Runtime.parallel_for_1d rt a (fun ~node:_ ~i:_ -> ());
  let bar = Network.barrier_cost (Machine.net m) ~nodes:4 in
  (* One access-free task per node: total time = its 1 µs charge + one
     barrier. *)
  check (Alcotest.float 1e-9) "one task and one barrier" (1.0 +. bar) (Runtime.total_time rt)

let suite =
  [
    ( "edge.machine",
      [
        Alcotest.test_case "single node: zero communication" `Quick
          test_single_node_no_communication;
        Alcotest.test_case "apps on odd node counts" `Quick test_apps_on_odd_node_counts;
        Alcotest.test_case "maximum node count" `Quick test_max_node_count;
      ] );
    ( "edge.proto",
      [
        Alcotest.test_case "unbalanced phase hooks" `Quick test_phase_hooks_unbalanced;
        Alcotest.test_case "write-update flush" `Quick test_write_update_flush;
        Alcotest.test_case "passive coherence" `Quick test_passive_coherence;
        Alcotest.test_case "engine recall/invalidate" `Quick
          test_engine_recall_and_invalidate_direct;
      ] );
    ( "edge.runtime",
      [
        Alcotest.test_case "phase_region exception safety" `Quick
          test_phase_region_exception_safety;
        Alcotest.test_case "allreduce on one node" `Quick test_allreduce_single_node;
        Alcotest.test_case "barrier accounting" `Quick test_barrier_cost_charged_once_per_phase;
      ] );
  ]
