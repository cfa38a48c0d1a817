(* The verification library itself: shrinking, mutation testing (seeded
   bugs must be found and minimized), scripted fault verdicts, trace JSON
   round-trips, the replay oracle, and counterexample artifacts.

   The mutation tests are the acceptance gate for the shrinker: an
   artificially seeded invariant violation must be caught by the explorer
   and delta-debugged down to a handful of operations. *)

module Model = Ccdsm_check.Model
module Explore = Ccdsm_check.Explore
module Shrink = Ccdsm_check.Shrink
module Replay = Ccdsm_check.Replay
module Artifacts = Ccdsm_check.Artifacts
module Faults = Ccdsm_tempest.Faults
module Trace = Ccdsm_tempest.Trace
module Tag = Ccdsm_tempest.Tag

let check = Alcotest.check

(* -- ddmin ----------------------------------------------------------------- *)

let test_shrink_to_core () =
  (* Failure iff the list contains both 3 and 7: everything else must go. *)
  let fails xs = List.mem 3 xs && List.mem 7 xs in
  let shrunk = Shrink.list fails [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  check Alcotest.(list int) "only the relevant elements survive" [ 3; 7 ] shrunk

let test_shrink_singleton () =
  let fails xs = List.mem 9 xs in
  check Alcotest.(list int) "single-element core" [ 9 ]
    (Shrink.list fails [ 4; 9; 2; 2; 2; 2; 2; 2 ])

let test_shrink_keeps_order () =
  (* Needs a 1 somewhere before a 2. *)
  let rec ordered = function
    | [] -> false
    | 1 :: rest -> List.mem 2 rest
    | _ :: rest -> ordered rest
  in
  check Alcotest.(list int) "order preserved" [ 1; 2 ]
    (Shrink.list ordered [ 5; 1; 5; 5; 2; 5 ])

let test_shrink_everything_matters () =
  let fails xs = List.length xs = 4 in
  check Alcotest.(list int) "already minimal" [ 1; 2; 3; 4 ]
    (Shrink.list fails [ 1; 2; 3; 4 ])

let test_shrink_rejects_passing_input () =
  match Shrink.list (fun _ -> false) [ 1; 2 ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* -- mutation tests: seeded bugs must be found and minimized --------------- *)

(* Pretend it is a protocol invariant that node 1 never holds a writable
   copy of block 0.  Any write by node 1 to block 0 violates it, so the
   minimal repro is a single op. *)
let test_mutation_single_op () =
  let cfg = Model.default_config () in
  let extra sys =
    if Model.tag_of sys ~node:1 ~block:0 = Tag.Read_write then
      raise (Model.Violation "seeded bug: n1 owns b0")
  in
  match Explore.run ~extra ~max_depth:3 cfg with
  | Explore.Pass _ -> Alcotest.fail "seeded bug not found"
  | Explore.Fail cex ->
      check Alcotest.int "shrunk to one op" 1 (List.length cex.Explore.ops)

let test_mutation_two_ops () =
  (* Node 2 holding a ReadOnly copy of block 1 requires a write by another
     node first?  No — a read alone suffices after init (home holds RW), so
     force a genuinely two-step bug: node 2 reads block 1 *after* node 0
     wrote it (directory Shared containing 2 while the model value is
     node 0's).  Cheapest expression: fail when node 0 and node 2 both hold
     readable copies of block 1 — needs two reads (or a write + read). *)
  let cfg = Model.default_config () in
  let extra sys =
    let readable t = t <> Tag.Invalid in
    if
      readable (Model.tag_of sys ~node:0 ~block:1)
      && readable (Model.tag_of sys ~node:2 ~block:1)
    then raise (Model.Violation "seeded bug: blocks 1 shared by n0 and n2")
  in
  match Explore.run ~extra ~max_depth:3 cfg with
  | Explore.Pass _ -> Alcotest.fail "seeded bug not found"
  | Explore.Fail cex ->
      let len = List.length cex.Explore.ops in
      check Alcotest.bool
        (Printf.sprintf "shrunk to <= 6 ops (got %d)" len)
        true (len <= 6);
      (* Shrinking must not lose the failure. *)
      check Alcotest.bool "message mentions the seeded bug" true
        (String.length cex.Explore.message > 0)

let test_mutation_fault_path () =
  (* A bug only reachable through a fault branch: fail once any presend
     grant has been lost.  Exploration without fault branches must pass;
     with them it must fail and shrink to a short sequence ending in a
     faulty op. *)
  let cfg = Model.default_config ~protocol:Model.Predictive ~faults:true () in
  let extra sys =
    if Model.lost_grants_of sys <> [] then
      raise (Model.Violation "seeded bug: a presend grant was lost")
  in
  (match Explore.run ~extra ~max_depth:3 { cfg with Model.faults = false } with
  | Explore.Pass _ -> ()
  | Explore.Fail _ -> Alcotest.fail "bug requires faults but was found without");
  match Explore.run ~extra ~max_depth:4 cfg with
  | Explore.Pass _ -> Alcotest.fail "fault-path bug not found"
  | Explore.Fail cex ->
      let len = List.length cex.Explore.ops in
      check Alcotest.bool
        (Printf.sprintf "shrunk to <= 6 ops (got %d)" len)
        true (len <= 6);
      check Alcotest.bool "repro uses a fault branch" true
        (List.exists
           (function
             | Model.Faulty_read _ | Model.Faulty_write _ | Model.Faulty_presend _ -> true
             | _ -> false)
           cex.Explore.ops)

let test_mutation_config_shrink () =
  (* A bug involving only node 0 and block 0 must shrink the machine too. *)
  let cfg = Model.default_config ~nodes:3 ~blocks:2 () in
  let extra sys =
    if Model.tag_of sys ~node:0 ~block:0 = Tag.Invalid then
      raise (Model.Violation "seeded bug: home lost its copy")
  in
  match Explore.run ~extra ~max_depth:3 cfg with
  | Explore.Pass _ -> Alcotest.fail "seeded bug not found"
  | Explore.Fail cex ->
      check Alcotest.bool "machine shrunk below 3x2" true
        (cex.Explore.cfg.Model.nodes < 3 || cex.Explore.cfg.Model.blocks < 2)

(* -- scripted fault verdicts ----------------------------------------------- *)

let test_forced_verdicts_fifo () =
  let inj = Faults.create Faults.none in
  Faults.force inj Faults.Drop;
  Faults.force inj Faults.Duplicate;
  check Alcotest.bool "first forced" true (Faults.verdict inj = Faults.Drop);
  check Alcotest.bool "second forced" true (Faults.verdict inj = Faults.Duplicate);
  check Alcotest.bool "then the plan (zero: deliver)" true
    (Faults.verdict inj = Faults.Deliver)

let test_forced_verdicts_cleared () =
  let inj = Faults.create Faults.none in
  Faults.force inj Faults.Delay;
  Faults.clear_forced inj;
  check Alcotest.bool "cleared verdict does not leak" true
    (Faults.verdict inj = Faults.Deliver)

(* -- Trace.of_json round-trips --------------------------------------------- *)

let roundtrip_events =
  [
    Trace.Init { nodes = 4; block_bytes = 32 };
    Trace.Alloc { first_block = 0; blocks = 3; home = 1 };
    Trace.Fault { node = 2; block = 5; write = true };
    Trace.Access { node = 1; addr = 44; write = false; faulted = true };
    Trace.Msg { src = 0; dst = 3; bytes = 40; kind = Trace.Data };
    Trace.Msg { src = 2; dst = -1; bytes = 8; kind = Trace.Reduce };
    Trace.Tag_change { node = 0; block = 1; before = Tag.Invalid; after = Tag.Read_write };
    Trace.Barrier { bucket = "synch" };
    Trace.Phase_begin { phase = 3 };
    Trace.Phase_end { phase = 3 };
    Trace.Sched_record { phase = 1; block = 7; node = 2; write = true };
    Trace.Sched_conflict { phase = 1; block = 7 };
    Trace.Sched_flush { phase = 1 };
    Trace.Presend { phase = 2; block = 4; dst = 1; write = false };
    Trace.Msg_drop { src = 1; dst = 2; kind = Trace.Req };
    Trace.Retry { node = 1; block = 4; attempt = 2 };
    Trace.Presend_fallback { phase = 0; block = 2; node = 3; write = true };
    Trace.Sched_corrupt { phase = 0; block = 2; node = None };
    Trace.Sched_corrupt { phase = 0; block = 2; node = Some 3 };
  ]

let test_trace_json_roundtrip () =
  List.iter
    (fun ev ->
      match Trace.of_json (Trace.to_json ev) with
      | Ok ev' ->
          check Alcotest.string
            ("round-trip " ^ Trace.type_name ev)
            (Trace.to_json ev) (Trace.to_json ev')
      | Error m -> Alcotest.failf "%s: %s" (Trace.type_name ev) m)
    roundtrip_events

let test_trace_json_errors () =
  List.iter
    (fun line ->
      match Trace.of_json line with
      | Ok _ -> Alcotest.failf "accepted malformed line: %s" line
      | Error _ -> ())
    [
      "";
      "not json";
      {|{"type":"unknown_event"}|};
      {|{"type":"msg","src":0}|};
      {|{"type":"tag","node":0,"block":1,"before":"Bogus","after":"Invalid"}|};
      (* truncated, trailing garbage, duplicate key *)
      {|{"type":"msg","src":0,"dst":1,"bytes":8,"kind":"data"|};
      {|{"type":"msg","src":0,"dst":1,"bytes":8,"kind":"data"} garbage|};
      {|{"type":"msg","src":0,"src":2,"dst":1,"bytes":8,"kind":"data"}|};
    ]

(* -- replay oracle ---------------------------------------------------------- *)

let test_replay_clean_trace () =
  (* Record a real Stache run and replay it. *)
  let module Machine = Ccdsm_tempest.Machine in
  let m = Machine.create (Machine.default_config ~num_nodes:3 ~block_bytes:32 ()) in
  let _eng, _coh = Ccdsm_proto.Engine.stache m in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Trace.to_json (Trace.Init { nodes = 3; block_bytes = 32 }));
  Buffer.add_char buf '\n';
  Machine.subscribe m (fun ev ->
      Buffer.add_string buf (Trace.to_json ev);
      Buffer.add_char buf '\n');
  let a = Machine.alloc m ~words:4 ~home:0 in
  Machine.write m ~node:1 a 1.0;
  ignore (Machine.read m ~node:2 a);
  Machine.barrier m ~bucket:Machine.Synch;
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  match Replay.run lines with
  | Ok r ->
      check Alcotest.int "one machine segment" 1 r.Replay.machines;
      check Alcotest.bool "events validated" true (r.Replay.events > 3)
  | Error e -> Alcotest.failf "clean trace rejected: %s" (Replay.error_to_string e)

let test_replay_multi_segment () =
  (* A legal ownership handoff: the home gives up its copy, node 1 takes
     it.  (Machine.alloc leaves the home holding ReadWrite.) *)
  let seg =
    [
      {|{"type":"init","nodes":2,"block_bytes":32}|};
      {|{"type":"alloc","first_block":0,"blocks":1,"home":0}|};
      {|{"type":"tag","node":0,"block":0,"before":"ReadWrite","after":"Invalid"}|};
      {|{"type":"tag","node":1,"block":0,"before":"Invalid","after":"ReadWrite"}|};
    ]
  in
  match Replay.run (seg @ seg) with
  | Ok r -> check Alcotest.int "two machine segments" 2 r.Replay.machines
  | Error e -> Alcotest.failf "multi-segment trace rejected: %s" (Replay.error_to_string e)

let test_replay_rejects_swmr_break () =
  (* The home holds ReadWrite from the alloc; a second writer is illegal. *)
  let lines =
    [
      {|{"type":"init","nodes":3,"block_bytes":32}|};
      {|{"type":"alloc","first_block":0,"blocks":1,"home":0}|};
      {|{"type":"tag","node":1,"block":0,"before":"Invalid","after":"ReadWrite"}|};
    ]
  in
  match Replay.run lines with
  | Ok _ -> Alcotest.fail "double writer accepted"
  | Error e -> check Alcotest.int "fails on the second writer" 3 e.Replay.line

let test_replay_headerless () =
  match Replay.run [ {|{"type":"barrier","bucket":"synch"}|} ] with
  | Ok _ -> Alcotest.fail "event before init accepted"
  | Error e -> check Alcotest.int "fails on line 1" 1 e.Replay.line

let test_replay_rejects_forged_ranges () =
  (* Replay lines are untrusted: an access or tag change naming a node or
     word the machine does not have fails on its own line, as an error
     record rather than an exception out of [run]. *)
  let contains s sub =
    let n = String.length s and k = String.length sub in
    let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
    go 0
  in
  let header =
    [
      {|{"type":"init","nodes":2,"block_bytes":32}|};
      {|{"type":"alloc","first_block":0,"blocks":1,"home":0}|};
    ]
  in
  List.iter
    (fun (forged, expect) ->
      match Replay.run (header @ [ forged ]) with
      | Ok _ -> Alcotest.failf "accepted: %s" forged
      | Error e ->
          check Alcotest.int ("fails on its line: " ^ forged) 3 e.Replay.line;
          check Alcotest.bool ("names the check: " ^ forged) true
            (contains e.Replay.message expect))
    [
      ({|{"type":"access","node":99,"addr":-5,"kind":"write","faulted":false}|}, "node 99");
      ({|{"type":"access","node":-1,"addr":0,"kind":"read","faulted":false}|}, "node -1");
      ({|{"type":"access","node":1,"addr":-5,"kind":"write","faulted":false}|}, "word -5");
      ({|{"type":"access","node":0,"addr":4,"kind":"read","faulted":false}|}, "word 4");
      ( {|{"type":"access","node":1,"addr":4611686018427387903,"kind":"write","faulted":false}|},
        "word 4611686018427387903" );
      ({|{"type":"tag","node":0,"block":-1,"before":"Invalid","after":"ReadOnly"}|}, "bad block");
      ({|{"type":"tag","node":7,"block":0,"before":"Invalid","after":"ReadOnly"}|}, "bad node");
    ]

(* -- artifacts -------------------------------------------------------------- *)

let with_failing_cex f =
  let cfg = Model.default_config () in
  let extra sys =
    if Model.tag_of sys ~node:0 ~block:0 = Tag.Invalid then
      raise (Model.Violation "seeded bug for artifact test")
  in
  match Explore.run ~extra ~max_depth:3 cfg with
  | Explore.Pass _ -> Alcotest.fail "seeded bug not found"
  | Explore.Fail cex -> f cex

let test_artifact_written () =
  with_failing_cex (fun cex ->
      let dir = Filename.concat (Filename.get_temp_dir_name ()) "ccdsm-check-artifacts" in
      let path = Artifacts.write ~dir cex in
      check Alcotest.bool "file exists" true (Sys.file_exists path);
      let ic = open_in path in
      let content =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let contains sub =
        let n = String.length content and k = String.length sub in
        let rec go i = i + k <= n && (String.sub content i k = sub || go (i + 1)) in
        go 0
      in
      check Alcotest.bool "report names the bug" true (contains "seeded bug");
      check Alcotest.bool "report carries the minimal repro" true (contains "minimal repro");
      check Alcotest.bool "report embeds a JSONL trace" true (contains {|{"type":|});
      (* Deterministic naming: a second write overwrites, not accumulates. *)
      let path2 = Artifacts.write ~dir cex in
      check Alcotest.string "same counterexample, same path" path path2)

let test_artifact_env_override () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "ccdsm-check-env" in
  Unix.putenv Artifacts.env_var dir;
  Fun.protect
    ~finally:(fun () -> Unix.putenv Artifacts.env_var "")
    (fun () -> check Alcotest.string "env override honoured" dir (Artifacts.dir ()))

(* -- exploration sanity ------------------------------------------------------ *)

let test_explore_counts_grow_with_depth () =
  let cfg = Model.default_config ~protocol:Model.Predictive () in
  let states d =
    match Explore.run ~max_depth:d cfg with
    | Explore.Pass { states; _ } -> states
    | Explore.Fail cex -> Alcotest.failf "unexpected failure: %s" cex.Explore.message
  in
  check Alcotest.bool "deeper explores more" true (states 3 < states 4)

let test_alphabet_shapes () =
  let base = Model.default_config () in
  let a0 = List.length (Model.alphabet base) in
  let a1 = List.length (Model.alphabet { base with Model.faults = true }) in
  let p =
    List.length (Model.alphabet (Model.default_config ~protocol:Model.Predictive ()))
  in
  check Alcotest.bool "fault branches widen the alphabet" true (a1 > a0);
  check Alcotest.bool "predictive adds phase ops" true (p > a0)

let suite =
  [
    ( "check.shrink",
      [
        Alcotest.test_case "ddmin keeps only the core" `Quick test_shrink_to_core;
        Alcotest.test_case "ddmin to a singleton" `Quick test_shrink_singleton;
        Alcotest.test_case "ddmin preserves order" `Quick test_shrink_keeps_order;
        Alcotest.test_case "ddmin on an already-minimal input" `Quick
          test_shrink_everything_matters;
        Alcotest.test_case "ddmin rejects passing input" `Quick
          test_shrink_rejects_passing_input;
      ] );
    ( "check.mutation",
      [
        Alcotest.test_case "seeded 1-op bug found and shrunk" `Quick test_mutation_single_op;
        Alcotest.test_case "seeded sharing bug shrunk to <= 6 ops" `Quick
          test_mutation_two_ops;
        Alcotest.test_case "fault-path bug needs fault branches" `Quick
          test_mutation_fault_path;
        Alcotest.test_case "machine shrinks too" `Quick test_mutation_config_shrink;
      ] );
    ( "check.faults",
      [
        Alcotest.test_case "forced verdicts are FIFO" `Quick test_forced_verdicts_fifo;
        Alcotest.test_case "cleared verdicts do not leak" `Quick test_forced_verdicts_cleared;
      ] );
    ( "check.trace_json",
      [
        Alcotest.test_case "every event round-trips" `Quick test_trace_json_roundtrip;
        Alcotest.test_case "malformed lines rejected" `Quick test_trace_json_errors;
      ] );
    ( "check.replay",
      [
        Alcotest.test_case "clean recorded trace replays" `Quick test_replay_clean_trace;
        Alcotest.test_case "multiple machine segments" `Quick test_replay_multi_segment;
        Alcotest.test_case "SWMR break rejected with line number" `Quick
          test_replay_rejects_swmr_break;
        Alcotest.test_case "events before init rejected" `Quick test_replay_headerless;
        Alcotest.test_case "forged node and word ranges rejected" `Quick
          test_replay_rejects_forged_ranges;
      ] );
    ( "check.artifacts",
      [
        Alcotest.test_case "counterexample written deterministically" `Quick
          test_artifact_written;
        Alcotest.test_case "CCDSM_CHECK_ARTIFACTS overrides the directory" `Quick
          test_artifact_env_override;
      ] );
    ( "check.explore",
      [
        Alcotest.test_case "state counts grow with depth" `Quick
          test_explore_counts_grow_with_depth;
        Alcotest.test_case "alphabet shapes" `Quick test_alphabet_shapes;
      ] );
  ]
