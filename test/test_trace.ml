(* Golden-trace regression tests and sanitizer unit tests.

   A tiny Jacobi relaxation (4 nodes, 16 elements, 32-byte blocks) runs under
   Stache and under the predictive protocol; the canonicalized event stream
   (every event except the voluminous per-access ones) must match the
   checked-in golden files byte for byte.  Regenerate after an intentional
   protocol change with:

     CCDSM_UPDATE_GOLDEN=1 dune runtest
     cp _build/default/test/golden-new/*.trace test/golden/

   The online sanitizer is attached to every golden run, so these tests also
   assert zero invariant violations on real executions; the unit tests below
   then prove the sanitizer actually rejects broken histories. *)

module Machine = Ccdsm_tempest.Machine
module Tag = Ccdsm_tempest.Tag
module Trace = Ccdsm_tempest.Trace
module Engine = Ccdsm_proto.Engine
module Sanitizer = Ccdsm_proto.Sanitizer
module Runtime = Ccdsm_runtime.Runtime
module Aggregate = Ccdsm_runtime.Aggregate
module Distribution = Ccdsm_runtime.Distribution

let check = Alcotest.check

(* -- the tiny Jacobi workload -------------------------------------------- *)

let n = 16

let run_jacobi rt =
  let m = Runtime.machine rt in
  let u = Aggregate.create_1d m ~name:"u" ~n ~dist:Distribution.Block1d () in
  let v = Aggregate.create_1d m ~name:"v" ~n ~dist:Distribution.Block1d () in
  for i = 0 to n - 1 do
    Aggregate.poke1 u i ~field:0 (float_of_int (i mod 5))
  done;
  let smooth = Runtime.make_phase rt ~name:"smooth" ~scheduled:true in
  let copy = Runtime.make_phase rt ~name:"copy" ~scheduled:true in
  (* Two iterations, so the predictive protocol's second pass presends the
     schedule recorded by the first. *)
  for _iter = 1 to 2 do
    Runtime.parallel_for_1d rt ~phase:smooth u (fun ~node ~i ->
        let at j = Aggregate.read1 u ~node j ~field:0 in
        let left = if i = 0 then 0.0 else at (i - 1) in
        let right = if i = n - 1 then 0.0 else at (i + 1) in
        Aggregate.write1 v ~node i ~field:0 ((left +. at i +. right) /. 3.0));
    Runtime.parallel_for_1d rt ~phase:copy v (fun ~node ~i ->
        Aggregate.write1 u ~node i ~field:0 (Aggregate.read1 v ~node i ~field:0))
  done;
  u

(* Canonical trace: every event except per-access ones, one JSON line each
   (the same canonicalization [Trace.jsonl_sink] applies). *)
(* The Init event goes only to the process-global sink, so a per-machine
   subscription starts at the first alloc; write the header ourselves to
   keep the goldens self-describing (the replay oracle needs it to size its
   mirror machine). *)
let add_header buf ~num_nodes ~block_bytes =
  Buffer.add_string buf (Trace.to_json (Trace.Init { nodes = num_nodes; block_bytes }));
  Buffer.add_char buf '\n'

let jacobi_trace protocol =
  let cfg = Machine.default_config ~num_nodes:4 ~block_bytes:32 () in
  let rt = Runtime.create ~cfg ~protocol ~sanitize:true () in
  let buf = Buffer.create 4096 in
  add_header buf ~num_nodes:4 ~block_bytes:32;
  Machine.subscribe (Runtime.machine rt) (fun ev ->
      match ev with
      | Trace.Access _ -> ()
      | _ ->
          Buffer.add_string buf (Trace.to_json ev);
          Buffer.add_char buf '\n');
  let u = run_jacobi rt in
  (Buffer.contents buf, u)

(* -- golden comparison ---------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let update_golden = Sys.getenv_opt "CCDSM_UPDATE_GOLDEN" <> None

let check_golden name actual =
  if update_golden then begin
    if not (Sys.file_exists "golden-new") then Sys.mkdir "golden-new" 0o755;
    let path = Filename.concat "golden-new" name in
    let oc = open_out_bin path in
    output_string oc actual;
    close_out oc;
    Printf.printf "golden updated: %s (copy back to test/golden/)\n" path
  end
  else begin
    let path = Filename.concat "golden" name in
    if not (Sys.file_exists path) then
      Alcotest.failf "missing golden file %s (run with CCDSM_UPDATE_GOLDEN=1)" path;
    check Alcotest.(list string) name
      (String.split_on_char '\n' (read_file path))
      (String.split_on_char '\n' actual)
  end

let test_golden_stache () =
  let trace, _ = jacobi_trace Runtime.Stache in
  check_golden "jacobi_stache.trace" trace

let test_golden_predictive () =
  let trace, _ = jacobi_trace Runtime.Predictive in
  check_golden "jacobi_predictive.trace" trace

let test_golden_migratory () =
  let trace, _ = jacobi_trace Runtime.Migratory in
  check_golden "jacobi_migratory.trace" trace

let test_golden_commutative () =
  let trace, _ = jacobi_trace Runtime.Commutative in
  check_golden "jacobi_commutative.trace" trace

let test_predictive_presends () =
  (* The golden content aside, the predictive run must actually exercise the
     presend machinery in iteration 2. *)
  let trace, _ = jacobi_trace Runtime.Predictive in
  let has_presend =
    List.exists
      (fun l -> String.length l >= 16 && String.sub l 0 16 = {|{"type":"presend|})
      (String.split_on_char '\n' trace)
  in
  check Alcotest.bool "presend events present" true has_presend

let test_determinism () =
  List.iter
    (fun proto ->
      let t1, _ = jacobi_trace proto in
      let t2, _ = jacobi_trace proto in
      check Alcotest.bool "two runs, identical traces" true (String.equal t1 t2))
    [
      Runtime.Stache;
      Runtime.Predictive;
      Runtime.Write_update;
      Runtime.Migratory;
      Runtime.Commutative;
    ]

let test_protocols_agree () =
  (* Same values under every registered protocol (each run sanitized in the
     mode its registry factory declares). *)
  let final protocol =
    let cfg = Machine.default_config ~num_nodes:4 ~block_bytes:32 () in
    let rt = Runtime.create ~cfg ~protocol ~sanitize:true () in
    let u = run_jacobi rt in
    List.init n (fun i -> Aggregate.peek1 u i ~field:0)
  in
  let reference = final Runtime.Stache in
  List.iter
    (fun protocol ->
      check
        Alcotest.(list (float 1e-12))
        (Runtime.protocol_name protocol ^ " agrees")
        reference (final protocol))
    [ Runtime.Predictive; Runtime.Write_update; Runtime.Migratory; Runtime.Commutative ]

(* -- sanitizer unit tests ------------------------------------------------- *)

let mk ?(nodes = 4) () =
  Machine.create (Machine.default_config ~num_nodes:nodes ~block_bytes:32 ())

let expect_violation name f =
  match f () with
  | () -> Alcotest.failf "%s: expected Sanitizer.Violation" name
  | exception Sanitizer.Violation _ -> ()

let test_sanitizer_counts () =
  let m = mk () in
  let eng, _ = Engine.stache m in
  let s = Sanitizer.attach ~dir:eng.Engine.dir m in
  let a = Machine.alloc m ~words:8 ~home:0 in
  Machine.write m ~node:1 a 1.0;
  ignore (Machine.read m ~node:2 a);
  Machine.barrier m ~bucket:Machine.Synch;
  check Alcotest.bool "sanitizer saw events" true (Sanitizer.events_seen s > 0)

let test_sanitizer_double_writer () =
  let m = mk () in
  let s = Sanitizer.attach m in
  let a = Machine.alloc m ~words:4 ~home:0 in
  let b = Machine.block_of m a in
  ignore s;
  (* Home starts ReadWrite; a second ReadWrite copy is never legal. *)
  expect_violation "double writer" (fun () -> Machine.set_tag m ~node:1 b Tag.Read_write)

let test_sanitizer_writer_plus_reader () =
  let m = mk () in
  ignore (Sanitizer.attach ~mode:Sanitizer.Invalidate m);
  let a = Machine.alloc m ~words:4 ~home:0 in
  let b = Machine.block_of m a in
  expect_violation "writer alongside reader" (fun () ->
      Machine.set_tag m ~node:1 b Tag.Read_only)

let test_sanitizer_update_mode_tolerates_readers () =
  (* The write-update protocol legitimately keeps the producer's ReadWrite
     copy alongside update-fed ReadOnly consumers. *)
  let m = mk () in
  ignore (Sanitizer.attach ~mode:Sanitizer.Update m);
  let a = Machine.alloc m ~words:4 ~home:0 in
  let b = Machine.block_of m a in
  Machine.set_tag m ~node:1 b Tag.Read_only;
  Machine.set_tag m ~node:2 b Tag.Read_only;
  expect_violation "but never two writers" (fun () ->
      Machine.set_tag m ~node:3 b Tag.Read_write)

let test_sanitizer_dir_disagreement () =
  let m = mk () in
  let eng, _ = Engine.stache m in
  ignore (Sanitizer.attach ~dir:eng.Engine.dir m);
  let a = Machine.alloc m ~words:4 ~home:0 in
  let b = Machine.block_of m a in
  (* Grow a ReadOnly copy behind the directory's back (mode Update would
     allow the tag combination itself); the next stable point must object. *)
  Machine.set_tag m ~node:0 b Tag.Read_only;
  Machine.set_tag m ~node:1 b Tag.Read_only;
  expect_violation "directory/tag disagreement" (fun () ->
      Machine.barrier m ~bucket:Machine.Synch)

let test_sanitizer_unrecorded_presend () =
  let m = mk () in
  ignore (Sanitizer.attach m);
  expect_violation "presend without schedule record" (fun () ->
      Machine.emit m (Trace.Presend { phase = 0; block = 3; dst = 1; write = false }))

let test_sanitizer_presend_to_recorded () =
  let m = mk () in
  ignore (Sanitizer.attach m);
  Machine.emit m (Trace.Sched_record { phase = 0; block = 3; node = 1; write = false });
  Machine.emit m (Trace.Sched_record { phase = 1; block = 3; node = 2; write = false });
  Machine.emit m (Trace.Presend { phase = 0; block = 3; dst = 1; write = false });
  (* A flush clears the flushed phase's recorded consumers: the same presend
     is now stale, while another phase's record of the same block stands. *)
  Machine.emit m (Trace.Sched_flush { phase = 0 });
  Machine.emit m (Trace.Presend { phase = 1; block = 3; dst = 2; write = false });
  expect_violation "presend after flush" (fun () ->
      Machine.emit m (Trace.Presend { phase = 0; block = 3; dst = 1; write = false }))

let test_sanitizer_presend_wrong_consumer () =
  let m = mk () in
  ignore (Sanitizer.attach m);
  Machine.emit m (Trace.Sched_record { phase = 0; block = 3; node = 1; write = false });
  expect_violation "presend to unrecorded node" (fun () ->
      Machine.emit m (Trace.Presend { phase = 0; block = 3; dst = 2; write = false }))

let test_sanitizer_race_detection () =
  let m = mk () in
  let eng, _ = Engine.stache m in
  ignore (Sanitizer.attach ~dir:eng.Engine.dir m);
  let a = Machine.alloc m ~words:4 ~home:0 in
  Machine.write m ~node:0 a 1.0;
  (* Same word, different node, no intervening barrier: a data race even
     though the coherence protocol handles it correctly. *)
  expect_violation "write race" (fun () -> Machine.write m ~node:1 a 2.0)

let test_sanitizer_race_reset_by_barrier () =
  let m = mk () in
  let eng, _ = Engine.stache m in
  ignore (Sanitizer.attach ~dir:eng.Engine.dir m);
  let a = Machine.alloc m ~words:4 ~home:0 in
  Machine.write m ~node:0 a 1.0;
  Machine.barrier m ~bucket:Machine.Synch;
  Machine.write m ~node:1 a 2.0;
  Machine.barrier m ~bucket:Machine.Synch

let test_sanitizer_races_off () =
  let m = mk () in
  let eng, _ = Engine.stache m in
  ignore (Sanitizer.attach ~dir:eng.Engine.dir ~check_races:false m);
  let a = Machine.alloc m ~words:4 ~home:0 in
  Machine.write m ~node:0 a 1.0;
  Machine.write m ~node:1 a 2.0

let test_sanitizer_diagnostics () =
  let m = mk () in
  ignore (Sanitizer.attach m);
  match Machine.emit m (Trace.Presend { phase = 7; block = 3; dst = 1; write = false }) with
  | () -> Alcotest.fail "expected Sanitizer.Violation"
  | exception Sanitizer.Violation v ->
      let msg = Sanitizer.to_string v in
      let contains sub =
        let n = String.length msg and k = String.length sub in
        let rec go i = i + k <= n && (String.sub msg i k = sub || go (i + 1)) in
        go 0
      in
      check Alcotest.string "names the failing check" "presend" v.Sanitizer.check;
      check Alcotest.bool "carries the violating event" true
        (List.exists (function Trace.Presend _ -> true | _ -> false) v.Sanitizer.history);
      check Alcotest.bool "rendering names the invariant" true (contains "presend");
      check Alcotest.bool "rendering includes event context" true
        (contains {|"type":"presend"|})

(* Like [expect_violation], but the violation must name [check]. *)
let expect_check name check_name f =
  match f () with
  | () -> Alcotest.failf "%s: expected a %S violation" name check_name
  | exception Sanitizer.Violation v -> check Alcotest.string name check_name v.Sanitizer.check

let test_sanitizer_race_across_epochs () =
  (* The race table is stamped with the barrier interval: node 1's write is
     the first in the new interval, and node 0 writing again races with it. *)
  let m = mk () in
  let eng, _ = Engine.stache m in
  ignore (Sanitizer.attach ~dir:eng.Engine.dir m);
  let a = Machine.alloc m ~words:4 ~home:0 in
  Machine.write m ~node:0 a 1.0;
  Machine.barrier m ~bucket:Machine.Synch;
  Machine.write m ~node:1 a 2.0;
  expect_check "race in the second interval" "race" (fun () -> Machine.write m ~node:0 a 3.0)

let test_sanitizer_race_on_permitted_write () =
  (* Commutative mode lets two nodes hold ReadWrite copies of a block, so
     node 1's write is a tag hit: only the race stamp can catch it.  Node
     0's write to [a + 1] grows the race table, so its write to [a] is an
     audited hit, which must stamp the word. *)
  let m = mk () in
  ignore (Sanitizer.attach ~mode:Sanitizer.Commutative m);
  let a = Machine.alloc m ~words:4 ~home:0 in
  Machine.set_tag m ~node:1 (Machine.block_of m a) Tag.Read_write;
  Machine.write m ~node:0 (a + 1) 1.0;
  Machine.write m ~node:0 a 1.0;
  expect_check "second writer" "race" (fun () -> Machine.write m ~node:1 a 2.0)

let test_sanitizer_dir_each_stable_point () =
  (* Every stable-point kind checks the dirty set, not only the Barrier
     that [test_sanitizer_dir_disagreement] uses. *)
  List.iter
    (fun (kind, stable_point) ->
      let m = mk () in
      let eng, _ = Engine.stache m in
      ignore (Sanitizer.attach ~dir:eng.Engine.dir m);
      let a = Machine.alloc m ~words:4 ~home:0 in
      let b = Machine.block_of m a in
      Machine.set_tag m ~node:0 b Tag.Read_only;
      Machine.set_tag m ~node:1 b Tag.Read_only;
      expect_check kind "directory" (fun () -> stable_point m a))
    [
      ("access", fun m a -> ignore (Machine.read m ~node:0 a));
      ("phase_end", fun m _ -> Machine.emit m (Trace.Phase_end { phase = 0 }));
      ("sched_flush", fun m _ -> Machine.emit m (Trace.Sched_flush { phase = 0 }));
    ]

let test_sanitizer_redirtied_block () =
  (* A read miss dirties the block twice (the home's downgrade, the
     reader's fill); the access checks it clean.  Dirtied again behind the
     directory's back, it must be checked again at the next stable point. *)
  let m = mk () in
  let eng, _ = Engine.stache m in
  ignore (Sanitizer.attach ~dir:eng.Engine.dir m);
  let a = Machine.alloc m ~words:4 ~home:0 in
  let b = Machine.block_of m a in
  let changes = ref 0 in
  Machine.subscribe m (function
    | Trace.Tag_change { block; _ } when block = b -> incr changes
    | _ -> ());
  ignore (Machine.read m ~node:1 a);
  check Alcotest.int "two tag changes before the access" 2 !changes;
  Machine.set_tag m ~node:2 b Tag.Read_only;
  expect_check "re-dirtied block" "directory" (fun () ->
      Machine.emit m (Trace.Phase_end { phase = 0 }))

let test_sanitizer_history_window () =
  (* After more than [history_len] events the diagnostics carry exactly the
     last 16, oldest first. *)
  let m = mk () in
  let s = Sanitizer.create m in
  let records =
    List.init 20 (fun block -> Trace.Sched_record { phase = 0; block; node = 1; write = false })
  in
  List.iter (Sanitizer.feed s) records;
  let stale = Trace.Presend { phase = 9; block = 0; dst = 1; write = false } in
  (match Sanitizer.feed s stale with
  | () -> Alcotest.fail "expected a presend violation"
  | exception Sanitizer.Violation v ->
      let expected = List.filteri (fun i _ -> i >= 5) records @ [ stale ] in
      check
        Alcotest.(list string)
        "the last 16 events, oldest first"
        (List.map Trace.to_json expected)
        (List.map Trace.to_json v.Sanitizer.history));
  (* Attached, the sanitizer keeps completed accesses unboxed; its
     diagnostics still list them, interleaved with the other events exactly
     as a subscriber attached before it saw them. *)
  let m = mk () in
  let seen = ref [] in
  Machine.subscribe m (fun ev -> seen := Trace.to_json ev :: !seen);
  let eng, _ = Engine.stache m in
  ignore (Sanitizer.attach ~dir:eng.Engine.dir m);
  let a = Machine.alloc m ~words:8 ~home:0 in
  for i = 0 to 7 do
    Machine.write m ~node:0 (a + i) 1.0;
    ignore (Machine.read m ~node:(1 + (i land 1)) (a + i))
  done;
  (match Machine.emit m stale with
  | () -> Alcotest.fail "expected a presend violation from the attached sanitizer"
  | exception Sanitizer.Violation v ->
      check
        Alcotest.(list string)
        "the last 16 events, accesses included"
        (List.rev (List.filteri (fun i _ -> i < 16) !seen))
        (List.map Trace.to_json v.Sanitizer.history));
  (* Attached alone, the sanitizer lets the machine record its hits in the
     ring (audited hits); the ring must hold what a subscriber sees of the
     same run. *)
  let run ~subscribed =
    let m = mk () in
    let seen = ref [] in
    if subscribed then Machine.subscribe m (fun ev -> seen := Trace.to_json ev :: !seen);
    let eng, _ = Engine.stache m in
    ignore (Sanitizer.attach ~dir:eng.Engine.dir m);
    let a = Machine.alloc m ~words:8 ~home:0 in
    for i = 0 to 7 do
      Machine.write m ~node:0 (a + i) 1.0;
      ignore (Machine.read m ~node:0 (a + i))
    done;
    ignore (Machine.read m ~node:1 a);
    match Machine.emit m stale with
    | () -> Alcotest.fail "expected a presend violation from the lone sanitizer"
    | exception Sanitizer.Violation v ->
        (List.rev (List.filteri (fun i _ -> i < 16) !seen), List.map Trace.to_json v.Sanitizer.history)
  in
  check
    Alcotest.(list string)
    "the last 16 events, audited hits included"
    (fst (run ~subscribed:true))
    (snd (run ~subscribed:false))

let test_sanitizer_rejects_bad_ranges () =
  (* [feed] takes untrusted events: an index outside the machine is a
     structured violation, never a table access. *)
  let m = mk ~nodes:2 () in
  ignore (Machine.alloc m ~words:4 ~home:0);
  List.iter
    (fun (name, check_name, ev) ->
      let s = Sanitizer.create m in
      expect_check name check_name (fun () -> Sanitizer.feed s ev))
    [
      ("node 99", "access", Trace.Access { node = 99; addr = -5; write = true; faulted = false });
      ("negative word", "access", Trace.Access { node = 1; addr = -5; write = true; faulted = false });
      ("word past the end", "access", Trace.Access { node = 0; addr = 4; write = false; faulted = false });
      ("huge word", "access", Trace.Access { node = 1; addr = max_int; write = true; faulted = false });
      ( "negative block", "tag",
        Trace.Tag_change { node = 0; block = -1; before = Tag.Invalid; after = Tag.Read_only } );
      ( "unallocated block", "tag",
        Trace.Tag_change { node = 0; block = 1; before = Tag.Invalid; after = Tag.Read_only } );
      ( "tag at node 2", "tag",
        Trace.Tag_change { node = 2; block = 0; before = Tag.Invalid; after = Tag.Read_only } );
      ("message to node -7", "msg", Trace.Msg { src = 0; dst = -7; bytes = 8; kind = Trace.Data });
      ("dropped message to node -9", "drop", Trace.Msg_drop { src = 1; dst = -9; kind = Trace.Data });
    ];
  (* A reduction message has no single destination: -1 stays legal. *)
  let s = Sanitizer.create m in
  Sanitizer.feed s (Trace.Msg { src = 0; dst = -1; bytes = 8; kind = Trace.Data });
  Sanitizer.feed s (Trace.Msg_drop { src = 1; dst = -1; kind = Trace.Data })

(* -- trace-replay oracle on the goldens ------------------------------------ *)

(* Every checked-in golden must replay cleanly through the offline oracle:
   the mirror machine's tags track the Tag_change events and the detached
   sanitizer re-validates every transition. *)
let test_goldens_replay () =
  List.iter
    (fun (name, mode) ->
      let path = Filename.concat "golden" name in
      if Sys.file_exists path then
        match Ccdsm_check.Replay.file ~mode path with
        | Ok r ->
            check Alcotest.bool (name ^ ": events validated") true (r.Ccdsm_check.Replay.events > 0)
        | Error e ->
            Alcotest.failf "%s: %s" name (Ccdsm_check.Replay.error_to_string e))
    [
      ("jacobi_stache.trace", Sanitizer.Invalidate);
      ("jacobi_predictive.trace", Sanitizer.Invalidate);
      ("jacobi_faulted.trace", Sanitizer.Invalidate);
      ("jacobi_migratory.trace", Sanitizer.Invalidate);
      ("jacobi_commutative.trace", Sanitizer.Commutative);
    ]

let test_replay_rejects_forged_tag () =
  (* A trace whose Tag_change lies about the before-tag must be rejected. *)
  let lines =
    [
      {|{"type":"init","nodes":2,"block_bytes":32}|};
      {|{"type":"alloc","first_block":0,"blocks":1,"home":0}|};
      {|{"type":"tag","node":1,"block":0,"before":"ReadWrite","after":"Invalid"}|};
    ]
  in
  match Ccdsm_check.Replay.run lines with
  | Ok _ -> Alcotest.fail "forged before-tag accepted"
  | Error e ->
      check Alcotest.int "fails on the forged line" 3 e.Ccdsm_check.Replay.line

(* -- faulted golden -------------------------------------------------------- *)

(* The same Jacobi under the predictive protocol with the experiment grid's
   5% fault plan (seed 42): drops, duplicates, delays and schedule
   corruption fire deterministically, and the recovery events they provoke
   (msg_drop, retry, presend_fallback, sched_corrupt) are part of the
   golden stream. *)
let faulted_plan =
  {
    Ccdsm_tempest.Faults.none with
    Ccdsm_tempest.Faults.drop = 0.05;
    dup = 0.025;
    delay = 0.025;
    corrupt = 0.05;
    seed = 42;
  }

let jacobi_faulted_trace () =
  let cfg = Machine.default_config ~num_nodes:4 ~block_bytes:32 () in
  let rt = Runtime.create ~cfg ~protocol:Runtime.Predictive ~sanitize:true () in
  Machine.set_faults (Runtime.machine rt) (Some (Ccdsm_tempest.Faults.create faulted_plan));
  let buf = Buffer.create 4096 in
  add_header buf ~num_nodes:4 ~block_bytes:32;
  Machine.subscribe (Runtime.machine rt) (fun ev ->
      match ev with
      | Trace.Access _ -> ()
      | _ ->
          Buffer.add_string buf (Trace.to_json ev);
          Buffer.add_char buf '\n');
  let u = run_jacobi rt in
  (Buffer.contents buf, u)

let test_golden_faulted () =
  let trace, u = jacobi_faulted_trace () in
  (* Faults must not change computed values... *)
  let clean =
    let cfg = Machine.default_config ~num_nodes:4 ~block_bytes:32 () in
    let rt = Runtime.create ~cfg ~protocol:Runtime.Predictive ~sanitize:true () in
    run_jacobi rt
  in
  check
    Alcotest.(list (float 1e-12))
    "faulted run computes the same values"
    (List.init n (fun i -> Aggregate.peek1 clean i ~field:0))
    (List.init n (fun i -> Aggregate.peek1 u i ~field:0));
  (* ...and the recovery byte stream is reproducible. *)
  check_golden "jacobi_faulted.trace" trace

let test_faulted_trace_has_recovery () =
  let trace, _ = jacobi_faulted_trace () in
  let has prefix =
    List.exists
      (fun l -> String.length l >= String.length prefix && String.sub l 0 (String.length prefix) = prefix)
      (String.split_on_char '\n' trace)
  in
  check Alcotest.bool "drops present" true (has {|{"type":"drop"|});
  check Alcotest.bool "retries present" true (has {|{"type":"retry"|})

let suite =
  [
    ( "trace.golden",
      [
        Alcotest.test_case "jacobi under stache" `Quick test_golden_stache;
        Alcotest.test_case "jacobi under predictive" `Quick test_golden_predictive;
        Alcotest.test_case "jacobi under migratory" `Quick test_golden_migratory;
        Alcotest.test_case "jacobi under commutative" `Quick test_golden_commutative;
        Alcotest.test_case "predictive run presends" `Quick test_predictive_presends;
        Alcotest.test_case "traces are deterministic" `Quick test_determinism;
        Alcotest.test_case "protocols agree on values" `Quick test_protocols_agree;
        Alcotest.test_case "jacobi under predictive with faults" `Quick test_golden_faulted;
        Alcotest.test_case "faulted trace shows recovery" `Quick
          test_faulted_trace_has_recovery;
        Alcotest.test_case "goldens replay through the oracle" `Quick test_goldens_replay;
        Alcotest.test_case "oracle rejects forged tags" `Quick
          test_replay_rejects_forged_tag;
      ] );
    ( "trace.sanitizer",
      [
        Alcotest.test_case "clean run, events seen" `Quick test_sanitizer_counts;
        Alcotest.test_case "double writer rejected" `Quick test_sanitizer_double_writer;
        Alcotest.test_case "writer+reader rejected (invalidate)" `Quick
          test_sanitizer_writer_plus_reader;
        Alcotest.test_case "update mode tolerates readers" `Quick
          test_sanitizer_update_mode_tolerates_readers;
        Alcotest.test_case "directory/tag disagreement" `Quick test_sanitizer_dir_disagreement;
        Alcotest.test_case "unrecorded presend rejected" `Quick
          test_sanitizer_unrecorded_presend;
        Alcotest.test_case "presend honours schedule and flush" `Quick
          test_sanitizer_presend_to_recorded;
        Alcotest.test_case "presend to wrong consumer" `Quick
          test_sanitizer_presend_wrong_consumer;
        Alcotest.test_case "write race detected" `Quick test_sanitizer_race_detection;
        Alcotest.test_case "barrier resets race window" `Quick
          test_sanitizer_race_reset_by_barrier;
        Alcotest.test_case "race check can be disabled" `Quick test_sanitizer_races_off;
        Alcotest.test_case "violation diagnostics" `Quick test_sanitizer_diagnostics;
        Alcotest.test_case "race across barrier epochs" `Quick
          test_sanitizer_race_across_epochs;
        Alcotest.test_case "race on a permitted write" `Quick
          test_sanitizer_race_on_permitted_write;
        Alcotest.test_case "directory checked at every stable point" `Quick
          test_sanitizer_dir_each_stable_point;
        Alcotest.test_case "re-dirtied block checked again" `Quick
          test_sanitizer_redirtied_block;
        Alcotest.test_case "history holds the last 16 events" `Quick
          test_sanitizer_history_window;
        Alcotest.test_case "out-of-range events rejected" `Quick
          test_sanitizer_rejects_bad_ranges;
      ] );
  ]
