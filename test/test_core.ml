(* Tests for the paper's contribution: communication schedules and the
   predictive protocol. *)

open Ccdsm_util
module Machine = Ccdsm_tempest.Machine
module Tag = Ccdsm_tempest.Tag
module Directory = Ccdsm_proto.Directory
module Bulk = Ccdsm_proto.Bulk
module Engine = Ccdsm_proto.Engine
module Coherence = Ccdsm_proto.Coherence
module Schedule = Ccdsm_core.Schedule
module Predictive = Ccdsm_core.Predictive
module Runtime = Ccdsm_runtime.Runtime
module Barnes = Ccdsm_apps.Barnes

let check = Alcotest.check
let tag = Alcotest.testable Tag.pp Tag.equal

(* -- Schedule ------------------------------------------------------------- *)

let test_schedule_reads () =
  let s = Schedule.create () in
  Schedule.record_read s 10 ~reader:1;
  Schedule.record_read s 10 ~reader:2;
  Schedule.record_read s 11 ~reader:1;
  check Alcotest.int "entries" 2 (Schedule.cardinal s);
  (match Schedule.find s 10 with
  | Some (Schedule.Readers r) -> check Alcotest.(list int) "readers" [ 1; 2 ] (Nodeset.elements r)
  | _ -> Alcotest.fail "expected Readers");
  check Alcotest.int "no conflicts" 0 (Schedule.conflicts s)

let test_schedule_writer () =
  let s = Schedule.create () in
  Schedule.record_write s 5 ~writer:3;
  (match Schedule.find s 5 with
  | Some (Schedule.Writer 3) -> ()
  | _ -> Alcotest.fail "expected Writer 3");
  (* Same writer again: no rewrite. *)
  Schedule.record_write s 5 ~writer:3;
  check Alcotest.int "no rewrite" 0 (Schedule.rewrites s);
  (* Migration: latest writer wins. *)
  Schedule.record_write s 5 ~writer:1;
  (match Schedule.find s 5 with
  | Some (Schedule.Writer 1) -> ()
  | _ -> Alcotest.fail "expected Writer 1");
  check Alcotest.int "rewrite counted" 1 (Schedule.rewrites s)

let test_schedule_conflict () =
  let s = Schedule.create () in
  Schedule.record_read s 7 ~reader:1;
  Schedule.record_write s 7 ~writer:2;
  (match Schedule.find s 7 with
  | Some (Schedule.Conflict _) -> ()
  | _ -> Alcotest.fail "read-then-write must conflict");
  let s2 = Schedule.create () in
  Schedule.record_write s2 7 ~writer:2;
  Schedule.record_read s2 7 ~reader:1;
  (match Schedule.find s2 7 with
  | Some (Schedule.Conflict _) -> ()
  | _ -> Alcotest.fail "write-then-read must conflict");
  (* Conflict is sticky, and the later collisions keep counting. *)
  Schedule.record_read s2 7 ~reader:3;
  Schedule.record_write s2 7 ~writer:0;
  (match Schedule.find s2 7 with
  | Some (Schedule.Conflict _) -> ()
  | _ -> Alcotest.fail "conflict must be sticky");
  check Alcotest.int "every collision counted" 3 (Schedule.conflicts s2);
  check Alcotest.int "one conflicted block"
    1
    (Schedule.conflicts s2 - Schedule.conflict_hits s2)

let test_schedule_conflict_hits () =
  (* Regression pin: [conflicts] counts EVERY colliding insertion — the
     transition plus later records landing on the already-conflicted block
     (an earlier revision missed the latter).  [conflict_hits] still counts
     just the landings, so conflicted-block count = conflicts - hits. *)
  let s = Schedule.create () in
  Schedule.record_write s 5 ~writer:0;
  Schedule.record_read s 5 ~reader:1;
  check Alcotest.int "transition counted" 1 (Schedule.conflicts s);
  check Alcotest.int "no hits at transition" 0 (Schedule.conflict_hits s);
  Schedule.record_read s 5 ~reader:2;
  Schedule.record_write s 5 ~writer:3;
  check Alcotest.int "later collisions counted too" 3 (Schedule.conflicts s);
  check Alcotest.int "later records counted as hits" 2 (Schedule.conflict_hits s);
  check Alcotest.int "still one conflicted block"
    1
    (Schedule.conflicts s - Schedule.conflict_hits s);
  Schedule.clear s;
  check Alcotest.int "conflicts cleared" 0 (Schedule.conflicts s);
  check Alcotest.int "hits cleared" 0 (Schedule.conflict_hits s)

let test_schedule_corruption_hooks () =
  let s = Schedule.create () in
  Schedule.record_write s 4 ~writer:1;
  Schedule.record_read s 9 ~reader:2;
  check Alcotest.int "nth 0" 4 (Schedule.nth_sorted s 0);
  check Alcotest.int "nth 1" 9 (Schedule.nth_sorted s 1);
  Schedule.set_mark s 4 (Schedule.Readers (Nodeset.singleton 7));
  (match Schedule.find s 4 with
  | Some (Schedule.Readers r) -> check Alcotest.(list int) "retargeted" [ 7 ] (Nodeset.elements r)
  | _ -> Alcotest.fail "expected retargeted Readers");
  Schedule.remove s 9;
  check Alcotest.int "removed" 1 (Schedule.cardinal s);
  check Alcotest.int "sorted cache refreshed" 4 (Schedule.nth_sorted s 0);
  Schedule.remove s 9;
  check Alcotest.int "remove is idempotent" 1 (Schedule.cardinal s)

let test_schedule_pre_conflict () =
  (* Conflicts remember the first stable state before the conflict. *)
  let s = Schedule.create () in
  Schedule.record_read s 7 ~reader:1;
  Schedule.record_read s 7 ~reader:2;
  Schedule.record_write s 7 ~writer:0;
  (match Schedule.find s 7 with
  | Some (Schedule.Conflict (Schedule.Pre_readers r)) ->
      check Alcotest.(list int) "pre-readers kept" [ 1; 2 ] (Nodeset.elements r)
  | _ -> Alcotest.fail "expected conflict with pre-readers");
  let s2 = Schedule.create () in
  Schedule.record_write s2 9 ~writer:3;
  Schedule.record_read s2 9 ~reader:1;
  (match Schedule.find s2 9 with
  | Some (Schedule.Conflict (Schedule.Pre_writer 3)) -> ()
  | _ -> Alcotest.fail "expected conflict with pre-writer 3");
  (* The pre state is the FIRST stable state: later records don't change it. *)
  Schedule.record_write s2 9 ~writer:2;
  (match Schedule.find s2 9 with
  | Some (Schedule.Conflict (Schedule.Pre_writer 3)) -> ()
  | _ -> Alcotest.fail "pre state must be sticky")

let test_schedule_clear () =
  let s = Schedule.create () in
  Schedule.record_read s 1 ~reader:0;
  Schedule.record_write s 2 ~writer:1;
  Schedule.record_read s 2 ~reader:0;
  Schedule.clear s;
  check Alcotest.int "cleared" 0 (Schedule.cardinal s);
  check Alcotest.int "conflicts cleared" 0 (Schedule.conflicts s);
  check Alcotest.bool "find after clear" true (Schedule.find s 1 = None)

let test_schedule_sorted_iteration () =
  let s = Schedule.create () in
  List.iter (fun b -> Schedule.record_read s b ~reader:0) [ 9; 2; 5; 1 ];
  let order = ref [] in
  Schedule.iter_sorted s (fun b _ -> order := b :: !order);
  check Alcotest.(list int) "ascending" [ 1; 2; 5; 9 ] (List.rev !order)

(* Random interleavings of recording, the fault-injection hooks, flushes
   and scans, against a Hashtbl reference of the transitions: every scan
   visits exactly the live blocks, ascending, with their current marks.
   Scans between the steps exercise the merge of keys recorded since the
   previous scan, and removals and re-marks of merged and unmerged keys. *)
let test_schedule_iter_sorted_prop =
  let open QCheck2.Gen in
  let block = int_range 0 40 and node = int_range 0 1023 in
  let op =
    frequency
      [
        (10, map2 (fun b n -> `Read (b, n)) block node);
        (10, map2 (fun b n -> `Write (b, n)) block node);
        (3, map (fun b -> `Remove b) block);
        (3, map2 (fun b n -> `Set (b, Schedule.Readers (Nodeset.singleton n))) block node);
        (3, map2 (fun b n -> `Set (b, Schedule.Writer n)) block node);
        (1, pure `Clear);
        (4, pure `Scan);
      ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"schedule scans visit live blocks in order"
       (list_size (int_range 0 200) op)
       (fun ops ->
         let s = Schedule.create () and r = Hashtbl.create 16 in
         let scan_ok () =
           let visited = ref [] in
           Schedule.iter_sorted s (fun b mark -> visited := (b, mark) :: !visited);
           List.rev !visited
           = List.sort
               (fun (a, _) (b, _) -> Int.compare a b)
               (Hashtbl.fold (fun b mark acc -> (b, mark) :: acc) r [])
         in
         List.for_all
           (function
             | `Read (b, n) ->
                 Schedule.record_read s b ~reader:n;
                 Hashtbl.replace r b
                   (match Hashtbl.find_opt r b with
                   | None -> Schedule.Readers (Nodeset.singleton n)
                   | Some (Schedule.Readers rs) -> Schedule.Readers (Nodeset.add n rs)
                   | Some (Schedule.Writer w) -> Schedule.Conflict (Schedule.Pre_writer w)
                   | Some c -> c);
                 true
             | `Write (b, n) ->
                 Schedule.record_write s b ~writer:n;
                 Hashtbl.replace r b
                   (match Hashtbl.find_opt r b with
                   | None | Some (Schedule.Writer _) -> Schedule.Writer n
                   | Some (Schedule.Readers rs) -> Schedule.Conflict (Schedule.Pre_readers rs)
                   | Some c -> c);
                 true
             | `Remove b ->
                 Schedule.remove s b;
                 Hashtbl.remove r b;
                 true
             | `Set (b, mark) ->
                 Schedule.set_mark s b mark;
                 Hashtbl.replace r b mark;
                 true
             | `Clear ->
                 Schedule.clear s;
                 Hashtbl.reset r;
                 true
             | `Scan -> scan_ok ())
           ops
         && scan_ok ()
         && Schedule.cardinal s = Hashtbl.length r))

let test_schedule_record_after_flush () =
  (* A flushed schedule rebuilds from scratch: no stale marks, no stale
     conflict or rewrite counts leaking into the new pattern. *)
  let s = Schedule.create () in
  Schedule.record_write s 4 ~writer:0;
  Schedule.record_read s 4 ~reader:2;  (* conflict *)
  Schedule.clear s;
  Schedule.record_read s 4 ~reader:3;
  check Alcotest.int "rebuilt with one entry" 1 (Schedule.cardinal s);
  check Alcotest.int "old conflict gone" 0 (Schedule.conflicts s);
  match Schedule.find s 4 with
  | Some (Schedule.Readers r) ->
      check Alcotest.(list int) "only the new reader" [ 3 ] (Nodeset.elements r)
  | _ -> Alcotest.fail "expected a clean Readers mark after flush"

let test_schedule_duplicate_records_idempotent () =
  let s = Schedule.create () in
  Schedule.record_read s 6 ~reader:1;
  Schedule.record_read s 6 ~reader:1;
  Schedule.record_read s 6 ~reader:1;
  check Alcotest.int "one entry" 1 (Schedule.cardinal s);
  (match Schedule.find s 6 with
  | Some (Schedule.Readers r) -> check Alcotest.(list int) "one reader" [ 1 ] (Nodeset.elements r)
  | _ -> Alcotest.fail "expected Readers");
  Schedule.record_write s 8 ~writer:2;
  Schedule.record_write s 8 ~writer:2;
  check Alcotest.int "same writer is not a rewrite" 0 (Schedule.rewrites s);
  check Alcotest.int "no conflicts from duplicates" 0 (Schedule.conflicts s)

(* -- Bulk coalescing ------------------------------------------------------- *)

let runs_t = Alcotest.(list (pair int int))

let test_bulk_runs_adjacent () =
  check runs_t "adjacent blocks form one run" [ (3, 3) ] (Bulk.runs [ 3; 4; 5 ]);
  check Alcotest.int "one message" 1 (Bulk.message_count [ 3; 4; 5 ])

let test_bulk_runs_non_adjacent () =
  check runs_t "gaps split runs" [ (1, 1); (3, 1); (5, 1) ] (Bulk.runs [ 1; 3; 5 ]);
  check Alcotest.int "one message each" 3 (Bulk.message_count [ 1; 3; 5 ])

let test_bulk_runs_unsorted_dups () =
  (* Order must not matter and duplicates must merge. *)
  check runs_t "unsorted input with duplicates" [ (1, 2); (5, 2) ]
    (Bulk.runs [ 5; 1; 2; 2; 6 ]);
  check runs_t "empty" [] (Bulk.runs []);
  check runs_t "singleton" [ (7, 1) ] (Bulk.runs [ 7; 7 ])

(* -- Predictive protocol -------------------------------------------------- *)

let predictive_machine ?(num_nodes = 4) ?(block_bytes = 32) () =
  let m = Machine.create (Machine.default_config ~num_nodes ~block_bytes ()) in
  let p = Predictive.create m in
  (m, p, Predictive.coherence p)

(* One producer-consumer iteration: node 0 writes, nodes 2 and 3 read. *)
let pc_iteration m coh a ~phase =
  coh.Coherence.phase_begin ~phase;
  Machine.write m ~node:0 a 1.0;
  ignore (Machine.read m ~node:2 a);
  ignore (Machine.read m ~node:3 a);
  coh.Coherence.phase_end ~phase

let test_predictive_builds_schedule () =
  let m, p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  pc_iteration m coh a ~phase:7;
  match Predictive.schedule p ~phase:7 with
  | None -> Alcotest.fail "schedule expected"
  | Some s ->
      check Alcotest.int "one block" 1 (Schedule.cardinal s);
      (match Schedule.find s (Machine.block_of m a) with
      | Some (Schedule.Conflict _) -> ()
      | _ -> Alcotest.fail "write+read in one phase is a conflict")

let test_predictive_no_recording_outside_phase () =
  let m, p, _coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  Machine.write m ~node:0 a 1.0;
  ignore (Machine.read m ~node:2 a);
  check Alcotest.bool "no schedule" true (Predictive.schedule p ~phase:0 = None)

(* Split producer and consumer into separate phases, like the compiler's
   directive placement does: writes in phase 0, reads in phase 1. *)
let two_phase_iteration m coh a n =
  coh.Coherence.phase_begin ~phase:0;
  Machine.write m ~node:0 a (float_of_int n);
  coh.Coherence.phase_end ~phase:0;
  coh.Coherence.phase_begin ~phase:1;
  ignore (Machine.read m ~node:2 a);
  ignore (Machine.read m ~node:3 a);
  coh.Coherence.phase_end ~phase:1

let test_predictive_presend_eliminates_faults () =
  let m, p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  (* Iteration 1 builds the schedules. *)
  two_phase_iteration m coh a 1;
  let f2 = (Machine.counters m ~node:2).Machine.read_faults in
  let f3 = (Machine.counters m ~node:3).Machine.read_faults in
  check Alcotest.int "iteration 1: consumer 2 faults" 1 f2;
  check Alcotest.int "iteration 1: consumer 3 faults" 1 f3;
  (* Iterations 2..4: presend satisfies every access. *)
  for n = 2 to 4 do
    two_phase_iteration m coh a n
  done;
  check Alcotest.int "no further reader faults (node 2)" f2
    (Machine.counters m ~node:2).Machine.read_faults;
  check Alcotest.int "no further reader faults (node 3)" f3
    (Machine.counters m ~node:3).Machine.read_faults;
  check Alcotest.int "no further writer faults" 1 (Machine.counters m ~node:0).Machine.write_faults;
  check (Alcotest.float 0.0) "data still correct" 4.0 (Machine.peek m a);
  (* Presend moved blocks. *)
  let st = Predictive.stats p in
  Alcotest.(check bool) "presend sent blocks" true (st.Predictive.presend_blocks > 0);
  (* Directory invariant holds at quiescence. *)
  for b = 0 to Machine.num_blocks m - 1 do
    match Directory.check_invariant (Predictive.engine p).Engine.dir b with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done

let test_predictive_presend_grants_tags () =
  let m, _p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  let b = Machine.block_of m a in
  two_phase_iteration m coh a 1;
  (* Begin phase 0 again: the writer mark pre-grants ReadWrite to node 0. *)
  coh.Coherence.phase_begin ~phase:0;
  check tag "writer pre-granted" Tag.Read_write (Machine.tag m ~node:0 b);
  check tag "old reader invalidated" Tag.Invalid (Machine.tag m ~node:2 b);
  coh.Coherence.phase_end ~phase:0;
  coh.Coherence.phase_begin ~phase:1;
  check tag "reader 2 pre-granted" Tag.Read_only (Machine.tag m ~node:2 b);
  check tag "reader 3 pre-granted" Tag.Read_only (Machine.tag m ~node:3 b);
  coh.Coherence.phase_end ~phase:1

let test_predictive_incremental_schedule () =
  let m, p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  let a2 = Machine.alloc m ~words:4 ~home:1 in
  (* Iteration 1: only consumer 2 reads block a. *)
  coh.Coherence.phase_begin ~phase:1;
  ignore (Machine.read m ~node:2 a);
  coh.Coherence.phase_end ~phase:1;
  (* Iteration 2: the pattern grows — consumer 3 and a second block appear.
     New faults must extend the schedule. *)
  coh.Coherence.phase_begin ~phase:1;
  ignore (Machine.read m ~node:2 a);
  ignore (Machine.read m ~node:3 a);
  ignore (Machine.read m ~node:3 a2);
  coh.Coherence.phase_end ~phase:1;
  (match Predictive.schedule p ~phase:1 with
  | Some s -> check Alcotest.int "schedule grew" 2 (Schedule.cardinal s)
  | None -> Alcotest.fail "schedule expected");
  (* Iteration 3: nobody faults. *)
  let before = (Machine.total_counters m).Machine.read_faults in
  coh.Coherence.phase_begin ~phase:1;
  ignore (Machine.read m ~node:2 a);
  ignore (Machine.read m ~node:3 a);
  ignore (Machine.read m ~node:3 a2);
  coh.Coherence.phase_end ~phase:1;
  check Alcotest.int "no new faults" before (Machine.total_counters m).Machine.read_faults

let test_predictive_flush () =
  let m, p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  coh.Coherence.phase_begin ~phase:3;
  ignore (Machine.read m ~node:2 a);
  coh.Coherence.phase_end ~phase:3;
  coh.Coherence.flush_schedule ~phase:3;
  (match Predictive.schedule p ~phase:3 with
  | Some s -> check Alcotest.int "flushed empty" 0 (Schedule.cardinal s)
  | None -> ());
  (* After a flush the next iteration faults again (and rebuilds). *)
  Machine.write m ~node:0 a 9.0;
  let before = (Machine.counters m ~node:2).Machine.read_faults in
  coh.Coherence.phase_begin ~phase:3;
  ignore (Machine.read m ~node:2 a);
  coh.Coherence.phase_end ~phase:3;
  check Alcotest.int "fault after flush" (before + 1) (Machine.counters m ~node:2).Machine.read_faults

let test_predictive_conflict_no_action () =
  let m, p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  (* Build a conflicting schedule: read and write in one phase. *)
  pc_iteration m coh a ~phase:0;
  let st = Predictive.stats p in
  let blocks_before = st.Predictive.presend_blocks in
  coh.Coherence.phase_begin ~phase:0;
  check Alcotest.int "conflict block not presended" blocks_before
    (Predictive.stats p).Predictive.presend_blocks;
  coh.Coherence.phase_end ~phase:0

let test_predictive_first_stable_conflict_action () =
  (* With the First_stable extension (section 3.4's suggestion), a conflict
     block is presended according to its pre-conflict state, so the stable
     consumers stop faulting; with the default `Ignore it faults forever. *)
  let run conflict_action =
    let m = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) in
    let p = Predictive.create ~conflict_action m in
    let coh = Predictive.coherence p in
    let a = Machine.alloc m ~words:4 ~home:1 in
    (* Phase pattern: node 2 reads the block, then node 0 writes it — a
       read+write conflict within the phase, repeated every iteration. *)
    for _ = 1 to 5 do
      coh.Coherence.phase_begin ~phase:0;
      ignore (Machine.read m ~node:2 a);
      Machine.write m ~node:0 a 1.0;
      coh.Coherence.phase_end ~phase:0
    done;
    (Machine.counters m ~node:2).Machine.read_faults
  in
  let ignore_faults = run `Ignore in
  let stable_faults = run `First_stable in
  check Alcotest.int "ignore: consumer faults every iteration" 5 ignore_faults;
  Alcotest.(check bool)
    (Printf.sprintf "first-stable cuts consumer faults (%d < %d)" stable_faults ignore_faults)
    true (stable_faults < ignore_faults)

let test_predictive_redundant_detection () =
  let m, p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  coh.Coherence.phase_begin ~phase:1;
  ignore (Machine.read m ~node:2 a);
  coh.Coherence.phase_end ~phase:1;
  (* Nothing invalidated node 2's copy, so the presend has nothing to do. *)
  coh.Coherence.phase_begin ~phase:1;
  coh.Coherence.phase_end ~phase:1;
  let st = Predictive.stats p in
  Alcotest.(check bool) "redundant presend counted" true (st.Predictive.presend_redundant >= 1)

let test_predictive_migratory () =
  (* A block written by a different node each iteration of the same phase:
     the schedule predicts the latest writer. *)
  let m, _p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:0 in
  let writer_of_iter n = 1 + (n mod 2) in
  for n = 0 to 5 do
    coh.Coherence.phase_begin ~phase:0;
    Machine.write m ~node:(writer_of_iter n) a (float_of_int n);
    coh.Coherence.phase_end ~phase:0
  done;
  check (Alcotest.float 0.0) "final value" 5.0 (Machine.peek m a)

let test_predictive_presend_charges_presend_bucket () =
  let m, _p, coh = predictive_machine () in
  let a = Machine.alloc m ~words:4 ~home:1 in
  two_phase_iteration m coh a 1;
  Machine.reset_stats m;
  two_phase_iteration m coh a 2;
  let presend = ref 0.0 in
  for n = 0 to 3 do
    presend := !presend +. Machine.bucket_time m ~node:n Machine.Presend
  done;
  Alcotest.(check bool) "presend time accrued" true (!presend > 0.0);
  (* The home node (1) did the sending work. *)
  Alcotest.(check bool) "home pays presend" true
    (Machine.bucket_time m ~node:1 Machine.Presend > 0.0)

let test_predictive_bulk_coalescing () =
  (* Two adjacent blocks read by the same consumer, then dirtied by node 0:
     the presend recalls both to their home and forwards them to the reader.
     Returns the protocol stats and the machine's own message delta over
     the presend. *)
  let run ~coalesce =
    let m = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) in
    let p = Predictive.create ~coalesce m in
    let coh = Predictive.coherence p in
    let a = Machine.alloc m ~words:8 ~home:1 in
    coh.Coherence.phase_begin ~phase:0;
    ignore (Machine.read m ~node:2 a);
    ignore (Machine.read m ~node:2 (a + 4));
    coh.Coherence.phase_end ~phase:0;
    (* Invalidate the copies so the presend has work to do. *)
    Machine.write m ~node:0 a 1.0;
    Machine.write m ~node:0 (a + 4) 2.0;
    let before = (Machine.total_counters m).Machine.msgs in
    coh.Coherence.phase_begin ~phase:0;
    coh.Coherence.phase_end ~phase:0;
    (Predictive.stats p, (Machine.total_counters m).Machine.msgs - before)
  in
  let st, sent = run ~coalesce:true in
  (* One recall request + one bulk recall reply bring both blocks home, then
     a single 2-block gather message forwards them to the reader. *)
  check Alcotest.int "three messages total" 3 st.Predictive.presend_msgs;
  check Alcotest.int "stat = messages sent" sent st.Predictive.presend_msgs;
  check Alcotest.int "two blocks granted" 2 st.Predictive.presend_blocks;
  (* Without coalescing every block travels alone: the recall request, one
     reply per block, one grant per block. *)
  let st, sent = run ~coalesce:false in
  check Alcotest.int "five messages uncoalesced" 5 st.Predictive.presend_msgs;
  check Alcotest.int "stat = messages sent uncoalesced" sent st.Predictive.presend_msgs;
  check Alcotest.int "two blocks granted uncoalesced" 2 st.Predictive.presend_blocks

(* Predictive Barnes at the figures' reduced scale (2048 bodies, 3
   iterations) on 8 nodes with 64 B blocks: the presend counters pinned at
   non-zero values.  [presend_undone] is the counter that reads the
   presended set, so a set left uncleared at phase entry, or one that
   collides two (node, block) grants, moves it. *)
let test_predictive_barnes_counters () =
  let cfg = { Barnes.default with Barnes.n_bodies = 2048; iterations = 3 } in
  let r =
    Runtime.create
      ~cfg:(Machine.default_config ~num_nodes:8 ~block_bytes:64 ())
      ~protocol:Runtime.Predictive ()
  in
  ignore (Barnes.run r cfg);
  let st = Predictive.stats (Option.get (Runtime.predictive r)) in
  let stats = (Runtime.coherence r).Coherence.stats () in
  let stat name = int_of_float (List.assoc name stats) in
  List.iter
    (fun (name, expected, got) -> check Alcotest.int name expected got)
    [
      ("presend_undone", 372, st.Predictive.presend_undone);
      ("presend_redundant", 2233, st.Predictive.presend_redundant);
      ("presend_grants_read", 41843, st.Predictive.presend_grants_r);
      ("presend_grants_write", 2627, st.Predictive.presend_grants_w);
      ("presend_msgs", 532, st.Predictive.presend_msgs);
      ("presend_blocks", 41053, st.Predictive.presend_blocks);
      ("faults_recorded", 53348, st.Predictive.faults_recorded);
      ("schedule_entries", 12202, stat "schedule_entries");
      ("schedule_conflicts", 19144, stat "schedule_conflicts");
    ]

let test_predictive_equivalence_with_stache =
  (* Whatever the phase directives, predictive must compute the same values
     as plain Stache on a random racy-free access pattern. *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"predictive values = stache values"
       QCheck2.Gen.(
         list_size (int_range 1 120)
           (triple (int_range 0 3) (int_range 0 15) (int_range 0 2)))
       (fun ops ->
         let run proto_predictive =
           let m = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) in
           let coh =
             if proto_predictive then Predictive.coherence (Predictive.create m)
             else snd (Engine.stache m)
           in
           let base = Machine.alloc m ~words:16 ~home:0 in
           let out = ref [] in
           List.iteri
             (fun k (node, idx, kind) ->
               if k mod 20 = 0 then begin
                 coh.Coherence.phase_end ~phase:(k / 20);
                 coh.Coherence.phase_begin ~phase:(1 + (k / 20))
               end;
               match kind with
               | 0 -> Machine.write m ~node (base + idx) (float_of_int k)
               | _ -> out := Machine.read m ~node (base + idx) :: !out)
             ops;
           !out
         in
         run true = run false))

let suite =
  [
    ( "core.schedule",
      [
        Alcotest.test_case "reads accumulate" `Quick test_schedule_reads;
        Alcotest.test_case "writer marks" `Quick test_schedule_writer;
        Alcotest.test_case "conflicts" `Quick test_schedule_conflict;
        Alcotest.test_case "conflict hits" `Quick test_schedule_conflict_hits;
        Alcotest.test_case "corruption hooks" `Quick test_schedule_corruption_hooks;
        Alcotest.test_case "pre-conflict capture" `Quick test_schedule_pre_conflict;
        Alcotest.test_case "clear" `Quick test_schedule_clear;
        Alcotest.test_case "sorted iteration" `Quick test_schedule_sorted_iteration;
        test_schedule_iter_sorted_prop;
        Alcotest.test_case "record after flush" `Quick test_schedule_record_after_flush;
        Alcotest.test_case "duplicate records idempotent" `Quick
          test_schedule_duplicate_records_idempotent;
        Alcotest.test_case "bulk runs: adjacent" `Quick test_bulk_runs_adjacent;
        Alcotest.test_case "bulk runs: non-adjacent" `Quick test_bulk_runs_non_adjacent;
        Alcotest.test_case "bulk runs: unsorted, duplicates" `Quick test_bulk_runs_unsorted_dups;
      ] );
    ( "core.predictive",
      [
        Alcotest.test_case "builds schedule" `Quick test_predictive_builds_schedule;
        Alcotest.test_case "no recording outside phase" `Quick
          test_predictive_no_recording_outside_phase;
        Alcotest.test_case "presend eliminates faults" `Quick
          test_predictive_presend_eliminates_faults;
        Alcotest.test_case "presend grants tags" `Quick test_predictive_presend_grants_tags;
        Alcotest.test_case "incremental schedule" `Quick test_predictive_incremental_schedule;
        Alcotest.test_case "flush" `Quick test_predictive_flush;
        Alcotest.test_case "conflict blocks skipped" `Quick test_predictive_conflict_no_action;
        Alcotest.test_case "first-stable conflict action" `Quick
          test_predictive_first_stable_conflict_action;
        Alcotest.test_case "redundant presend detection" `Quick test_predictive_redundant_detection;
        Alcotest.test_case "migratory pattern" `Quick test_predictive_migratory;
        Alcotest.test_case "presend bucket charged" `Quick
          test_predictive_presend_charges_presend_bucket;
        Alcotest.test_case "bulk coalescing" `Quick test_predictive_bulk_coalescing;
        Alcotest.test_case "barnes presend counters" `Quick test_predictive_barnes_counters;
        test_predictive_equivalence_with_stache;
      ] );
  ]
