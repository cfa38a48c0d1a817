(* The differential protocol-equivalence harness (the tentpole asset).

   Every registered protocol is a cost/permission model over one
   structurally-shared heap, so on the same deterministic app run all of
   them must leave byte-identical final heaps.  These tests drive
   Proto_diff over three hand-written workloads — a jacobi stencil, a
   migratory hot-block rotation and a multi-writer reduction — with the
   sanitizer attached, then fuzz the same property over random C**
   programs (reusing the cstar fuzzer's generator) at --jobs 1 and
   --jobs 4. *)

module Machine = Ccdsm_tempest.Machine
module Faults = Ccdsm_tempest.Faults
module Runtime = Ccdsm_runtime.Runtime
module Aggregate = Ccdsm_runtime.Aggregate
module Distribution = Ccdsm_runtime.Distribution
module Proto_diff = Ccdsm_harness.Proto_diff
module Parjobs = Ccdsm_harness.Parjobs

let check = Alcotest.check

(* -- workloads ------------------------------------------------------------- *)

(* A small jacobi relaxation: owner-computes, nearest-neighbour sharing —
   the friendly case every protocol should agree on. *)
let jacobi_app rt =
  let m = Runtime.machine rt in
  let n = 24 in
  let u = Aggregate.create_1d m ~name:"u" ~n ~dist:Distribution.Block1d () in
  let v = Aggregate.create_1d m ~name:"v" ~n ~dist:Distribution.Block1d () in
  for i = 0 to n - 1 do
    Aggregate.poke1 u i ~field:0 (float_of_int ((i * 7) mod 11))
  done;
  let smooth = Runtime.make_phase rt ~name:"smooth" ~scheduled:true in
  let copy = Runtime.make_phase rt ~name:"copy" ~scheduled:true in
  for _iter = 1 to 3 do
    Runtime.parallel_for_1d rt ~phase:smooth u (fun ~node ~i ->
        let at j = Aggregate.read1 u ~node j ~field:0 in
        let left = if i = 0 then 0.0 else at (i - 1) in
        let right = if i = n - 1 then 0.0 else at (i + 1) in
        Aggregate.write1 v ~node i ~field:0 ((left +. at i +. right) /. 3.0));
    Runtime.parallel_for_1d rt ~phase:copy v (fun ~node ~i ->
        Aggregate.write1 u ~node i ~field:0 (Aggregate.read1 v ~node i ~field:0))
  done;
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. Aggregate.peek1 u i ~field:0
  done;
  !s

(* One hot block read-modify-written by a rotating node each phase: the
   classic migratory sharing pattern.  After the detector arms, each
   rotation is one ownership handoff instead of a read fault plus a write
   fault, so migratory must see no more remote misses than stache. *)
let rotation_app rt =
  let m = Runtime.machine rt in
  let words = 4 in
  let u = Aggregate.create_1d m ~name:"hot" ~n:words ~dist:Distribution.Block1d () in
  let ph = Runtime.make_phase rt ~name:"rotate" ~scheduled:false in
  let nodes = Runtime.nodes rt in
  for iter = 0 to (6 * nodes) - 1 do
    let actor = iter mod nodes in
    Runtime.parallel_nodes rt ~phase:ph (fun ~node ->
        if node = actor then
          for i = 0 to words - 1 do
            let v = Aggregate.read1 u ~node i ~field:0 in
            Aggregate.write1 u ~node i ~field:0 (v +. float_of_int (i + 1))
          done)
  done;
  let s = ref 0.0 in
  for i = 0 to words - 1 do
    s := !s +. Aggregate.peek1 u i ~field:0
  done;
  !s

(* Every node accumulates into the same small aggregate each phase — a
   commutative reduction.  Legitimately multi-writer within a phase
   (check_races:false); the commutative protocol privatizes the block per
   writer and merges at the phase boundary. *)
let reduction_app rt =
  let m = Runtime.machine rt in
  let n = 8 in
  let acc = Aggregate.create_1d m ~name:"acc" ~n ~dist:Distribution.Block1d () in
  (* scheduled:true — the compiler's directive is what brackets the phase
     with coherence hooks, and the commutative merge runs in phase_end. *)
  let ph = Runtime.make_phase rt ~name:"accum" ~scheduled:true in
  for _iter = 1 to 3 do
    Runtime.parallel_nodes rt ~phase:ph (fun ~node ->
        for i = 0 to n - 1 do
          let v = Aggregate.read1 acc ~node i ~field:0 in
          Aggregate.write1 acc ~node i ~field:0 (v +. float_of_int ((node + i) mod 5))
        done)
  done;
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. Aggregate.peek1 acc i ~field:0
  done;
  !s

let stat row name =
  match List.assoc_opt name row.Proto_diff.stats with Some v -> v | None -> 0.0

let require_row report name =
  match Proto_diff.find report name with
  | Some r -> r
  | None -> Alcotest.failf "report has no %s row" name

(* -- unit tests ------------------------------------------------------------- *)

let test_all_protocols () =
  check Alcotest.int "five registered protocols" 5 (List.length (Proto_diff.all_protocols ()))

let test_digest_sensitivity () =
  let mk () = Machine.create (Machine.default_config ~num_nodes:2 ~block_bytes:32 ()) in
  let m1 = mk () and m2 = mk () in
  let a1 = Machine.alloc m1 ~words:8 ~home:0 and a2 = Machine.alloc m2 ~words:8 ~home:0 in
  Machine.write m1 ~node:0 a1 1.5;
  Machine.write m2 ~node:0 a2 1.5;
  check Alcotest.bool "identical heaps, identical digests" true
    (Int64.equal (Proto_diff.digest_of_machine m1) (Proto_diff.digest_of_machine m2));
  Machine.barrier m2 ~bucket:Machine.Synch;
  Machine.write m2 ~node:0 (a2 + 1) 0.0625;
  check Alcotest.bool "one word changed, digest changed" false
    (Int64.equal (Proto_diff.digest_of_machine m1) (Proto_diff.digest_of_machine m2))

let test_jacobi_agree () =
  let report = Proto_diff.run ~nodes:4 ~app:"jacobi" ~run:jacobi_app () in
  check Alcotest.int "one row per protocol" 5 (List.length report.Proto_diff.rows);
  check Alcotest.bool "heaps agree" true report.Proto_diff.agree;
  let reference = (List.hd report.Proto_diff.rows).Proto_diff.checksum in
  List.iter
    (fun r -> check (Alcotest.float 0.0) (r.Proto_diff.protocol ^ " checksum") reference r.Proto_diff.checksum)
    report.Proto_diff.rows

let test_rotation_migratory_ordering () =
  let report = Proto_diff.run ~nodes:4 ~app:"rotation" ~run:rotation_app () in
  check Alcotest.bool "heaps agree" true report.Proto_diff.agree;
  let mig = require_row report "migratory" and st = require_row report "stache" in
  check Alcotest.bool "migratory detected the pattern" true
    (stat mig "migratory_handoffs" > 0.0);
  check Alcotest.bool
    (Printf.sprintf "migratory misses (%d) <= stache misses (%d)"
       mig.Proto_diff.remote_misses st.Proto_diff.remote_misses)
    true
    (mig.Proto_diff.remote_misses <= st.Proto_diff.remote_misses)

let test_reduction_commutative_merges () =
  let report =
    Proto_diff.run ~nodes:4 ~check_races:false ~app:"reduction" ~run:reduction_app ()
  in
  check Alcotest.bool "heaps agree" true report.Proto_diff.agree;
  let com = require_row report "commutative" in
  check Alcotest.bool "phase merges ran" true (stat com "comm_merges" > 0.0);
  check Alcotest.bool "blocks were privatized" true (stat com "comm_privatizations" > 0.0)

let test_faulted_runs_agree () =
  (* Same workload, every protocol, with a seeded fault plan: recovery must
     not change the heap (and the attached sanitizer must stay silent). *)
  let faults =
    { Faults.none with Faults.drop = 0.15; dup = 0.05; delay = 0.05; corrupt = 0.1; seed = 42 }
  in
  let clean = Proto_diff.run ~nodes:4 ~app:"rotation" ~run:rotation_app () in
  let faulted = Proto_diff.run ~nodes:4 ~faults ~app:"rotation" ~run:rotation_app () in
  check Alcotest.bool "faulted heaps agree across protocols" true faulted.Proto_diff.agree;
  check Alcotest.bool "faulted digest equals clean digest" true
    (Int64.equal
       (List.hd clean.Proto_diff.rows).Proto_diff.digest
       (List.hd faulted.Proto_diff.rows).Proto_diff.digest)

let test_render () =
  let report = Proto_diff.run ~nodes:4 ~app:"jacobi" ~run:jacobi_app () in
  let text = Proto_diff.render report in
  let contains sub =
    let n = String.length text and k = String.length sub in
    let rec go i = i + k <= n && (String.sub text i k = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "verdict rendered" true (contains "final heaps agree");
  List.iter
    (fun r -> check Alcotest.bool (r.Proto_diff.protocol ^ " listed") true (contains r.Proto_diff.protocol))
    report.Proto_diff.rows

(* -- qcheck: random C** programs, all protocols, jobs 1 and 4 -------------- *)

let prop_fuzz_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"random C** program: all protocols bit-identical at jobs 1 and 4"
       Test_cstar_fuzz.gen_program (fun ast ->
         match Test_cstar_fuzz.compile_ast ast with
         | Error (printed, errs) ->
             QCheck2.Test.fail_reportf "did not compile:@.%s@.errors: %s" printed
               (String.concat "; " errs)
         | Ok (_, compiled) ->
             let protocols = Proto_diff.all_protocols () in
             let bits jobs =
               Parjobs.map ~jobs
                 (fun protocol ->
                   Ccdsm_check.Oracle.run_bits compiled ~num_nodes:4 ~block_bytes:32
                     ~protocol)
                 protocols
             in
             let seq = bits 1 in
             let par = bits 4 in
             (match seq with
             | [] -> false
             | reference :: rest ->
                 List.for_all (fun b -> b = reference) rest && par = seq)))

let suite =
  [
    ( "proto_diff",
      [
        Alcotest.test_case "registry exposes all protocols" `Quick test_all_protocols;
        Alcotest.test_case "digest is bit-sensitive" `Quick test_digest_sensitivity;
        Alcotest.test_case "jacobi: five protocols, one heap" `Quick test_jacobi_agree;
        Alcotest.test_case "rotation: migratory handoffs and miss ordering" `Quick
          test_rotation_migratory_ordering;
        Alcotest.test_case "reduction: commutative merges at phase end" `Quick
          test_reduction_commutative_merges;
        Alcotest.test_case "faulted runs leave the same heap" `Quick test_faulted_runs_agree;
        Alcotest.test_case "report renders" `Quick test_render;
        prop_fuzz_differential;
      ] );
  ]
