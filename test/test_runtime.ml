(* Tests for distributions, aggregates, the shared heap and the phase
   executor. *)

module Machine = Ccdsm_tempest.Machine
module Distribution = Ccdsm_runtime.Distribution
module Aggregate = Ccdsm_runtime.Aggregate
module Shared_heap = Ccdsm_runtime.Shared_heap
module Runtime = Ccdsm_runtime.Runtime

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* -- Distribution --------------------------------------------------------- *)

let test_chunk_partition =
  qtest "chunk is a balanced partition"
    QCheck2.Gen.(pair (int_range 0 200) (int_range 1 33))
    (fun (n, parts) ->
      let covered = ref 0 in
      let ok = ref true in
      let prev_hi = ref 0 in
      for part = 0 to parts - 1 do
        let lo, hi = Distribution.chunk ~n ~parts ~part in
        if lo <> !prev_hi then ok := false;
        if hi - lo < n / parts || hi - lo > (n / parts) + 1 then ok := false;
        covered := !covered + (hi - lo);
        prev_hi := hi
      done;
      !ok && !covered = n && !prev_hi = n)

let dist_gen_1d =
  QCheck2.Gen.(
    let* nodes = int_range 1 16 in
    let* n = int_range 1 100 in
    let* dist = oneofl [ Distribution.Block1d; Distribution.Cyclic ] in
    return (nodes, n, dist))

let test_owner_rank_consistency_1d =
  qtest "1-D owner/rank/iter agree" dist_gen_1d (fun (nodes, n, dist) ->
      let ok = ref true in
      (* Every element owned by exactly the node that iterates it, and ranks
         within one owner are 0..count-1 without repetition. *)
      let seen = Array.make n (-1) in
      for node = 0 to nodes - 1 do
        let count = ref 0 in
        Distribution.iter_owned1 dist ~nodes ~n ~node (fun i ->
            if Distribution.owner1 dist ~nodes ~n i <> node then ok := false;
            if seen.(i) <> -1 then ok := false;
            seen.(i) <- Distribution.rank1 dist ~nodes ~n i;
            incr count);
        if !count <> Distribution.owned_count1 dist ~nodes ~n ~node then ok := false
      done;
      Array.iteri (fun i r -> if r < 0 || i < 0 then ok := false) seen;
      !ok)

let dist_gen_2d =
  QCheck2.Gen.(
    let* rows = int_range 1 20 in
    let* cols = int_range 1 20 in
    let* choice = int_range 0 2 in
    let dist, nodes =
      match choice with
      | 0 -> (Distribution.Row_block, 4)
      | 1 -> (Distribution.Tiled { pr = 2; pc = 2 }, 4)
      | _ -> (Distribution.Tiled { pr = 1; pc = 3 }, 3)
    in
    return (nodes, rows, cols, dist))

let test_owner_rank_consistency_2d =
  qtest "2-D owner/rank/iter agree" dist_gen_2d (fun (nodes, rows, cols, dist) ->
      let ok = ref true in
      let seen = Array.make_matrix rows cols false in
      for node = 0 to nodes - 1 do
        let ranks = Hashtbl.create 16 in
        let count = ref 0 in
        Distribution.iter_owned2 dist ~nodes ~rows ~cols ~node (fun i j ->
            if Distribution.owner2 dist ~nodes ~rows ~cols i j <> node then ok := false;
            if seen.(i).(j) then ok := false;
            seen.(i).(j) <- true;
            let r = Distribution.rank2 dist ~nodes ~rows ~cols i j in
            if Hashtbl.mem ranks r then ok := false;
            Hashtbl.add ranks r ();
            incr count);
        if !count <> Distribution.owned_count2 dist ~nodes ~rows ~cols ~node then ok := false
      done;
      Array.iter (fun row -> Array.iter (fun s -> if not s then ok := false) row) seen;
      !ok)

let test_distribution_validation () =
  Alcotest.(check bool)
    "tiled grid mismatch" true
    (Result.is_error (Distribution.validate (Tiled { pr = 3; pc = 3 }) ~nodes:4 ~dims:[| 4; 4 |]));
  Alcotest.(check bool)
    "block1d on 2-D" true
    (Result.is_error (Distribution.validate Block1d ~nodes:4 ~dims:[| 4; 4 |]));
  Alcotest.(check bool)
    "row-block ok" true
    (Result.is_ok (Distribution.validate Row_block ~nodes:4 ~dims:[| 4; 4 |]))

let test_distribution_validation_exhaustive () =
  let err d ~nodes ~dims = Result.is_error (Distribution.validate d ~nodes ~dims) in
  Alcotest.(check bool) "cyclic on 2-D" true (err Distribution.Cyclic ~nodes:4 ~dims:[| 4; 4 |]);
  Alcotest.(check bool) "row-block on 1-D" true (err Distribution.Row_block ~nodes:4 ~dims:[| 8 |]);
  Alcotest.(check bool) "tiled on 1-D" true
    (err (Distribution.Tiled { pr = 2; pc = 2 }) ~nodes:4 ~dims:[| 8 |]);
  Alcotest.(check bool) "tiled with zero grid" true
    (err (Distribution.Tiled { pr = 0; pc = 4 }) ~nodes:0 ~dims:[| 4; 4 |]);
  Alcotest.(check bool) "cyclic on 1-D ok" true
    (Result.is_ok (Distribution.validate Distribution.Cyclic ~nodes:4 ~dims:[| 8 |]))

let test_distribution_cyclic_edges () =
  (* Fewer elements than nodes: trailing nodes own nothing. *)
  let nodes = 5 and n = 3 in
  Alcotest.(check int) "node 0 owns one" 1
    (Distribution.owned_count1 Distribution.Cyclic ~nodes ~n ~node:0);
  Alcotest.(check int) "node 4 owns none" 0
    (Distribution.owned_count1 Distribution.Cyclic ~nodes ~n ~node:4);
  let visited = ref [] in
  Distribution.iter_owned1 Distribution.Cyclic ~nodes ~n ~node:4 (fun i ->
      visited := i :: !visited);
  Alcotest.(check (list int)) "no elements iterated" [] !visited;
  (* Strided ownership and local ranks. *)
  Alcotest.(check int) "element 7 of 10 on 3 nodes" 1
    (Distribution.owner1 Distribution.Cyclic ~nodes:3 ~n:10 7);
  Alcotest.(check int) "its local rank" 2
    (Distribution.rank1 Distribution.Cyclic ~nodes:3 ~n:10 7)

let test_distribution_tiled_fixed () =
  (* A concrete 2x3 grid over a 5x7 matrix: spot-check corners and tile
     boundaries against the chunk partition. *)
  let dist = Distribution.Tiled { pr = 2; pc = 3 } in
  let nodes = 6 and rows = 5 and cols = 7 in
  Alcotest.(check int) "top-left tile" 0 (Distribution.owner2 dist ~nodes ~rows ~cols 0 0);
  Alcotest.(check int) "top-right tile" 2 (Distribution.owner2 dist ~nodes ~rows ~cols 0 6);
  Alcotest.(check int) "bottom-left tile" 3 (Distribution.owner2 dist ~nodes ~rows ~cols 4 0);
  Alcotest.(check int) "bottom-right tile" 5 (Distribution.owner2 dist ~nodes ~rows ~cols 4 6);
  Alcotest.(check int) "origin rank" 0 (Distribution.rank2 dist ~nodes ~rows ~cols 0 0);
  let total =
    List.init nodes (fun node -> Distribution.owned_count2 dist ~nodes ~rows ~cols ~node)
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "tiles partition the matrix" (rows * cols) total

let test_distribution_pp () =
  let render d = Format.asprintf "%a" Distribution.pp d in
  Alcotest.(check string) "block" "block" (render Distribution.Block1d);
  Alcotest.(check string) "row-block" "row-block" (render Distribution.Row_block);
  Alcotest.(check string) "tiled" "tiled(2x3)" (render (Distribution.Tiled { pr = 2; pc = 3 }));
  Alcotest.(check string) "cyclic" "cyclic" (render Distribution.Cyclic)

(* -- Aggregate ------------------------------------------------------------ *)

let machine () = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ())

let test_aggregate_homing () =
  let m = machine () in
  let a = Aggregate.create_1d m ~name:"x" ~n:16 ~dist:Distribution.Block1d () in
  (* Every element's data must be homed on its owning node. *)
  for i = 0 to 15 do
    let owner = Aggregate.owner1 a i in
    let addr = Aggregate.addr1 a i ~field:0 in
    check Alcotest.int
      (Printf.sprintf "element %d homed on owner" i)
      owner
      (Machine.home m (Machine.block_of m addr))
  done

let test_aggregate_distinct_addrs () =
  let m = machine () in
  let a = Aggregate.create_2d m ~name:"g" ~elem_words:3 ~rows:6 ~cols:5 ~dist:Distribution.Row_block () in
  let seen = Hashtbl.create 64 in
  for i = 0 to 5 do
    for j = 0 to 4 do
      for f = 0 to 2 do
        let addr = Aggregate.addr2 a i j ~field:f in
        Alcotest.(check bool) "fresh address" false (Hashtbl.mem seen addr);
        Hashtbl.add seen addr ()
      done
    done
  done

let test_aggregate_rw () =
  let m = machine () in
  let _, _ = Ccdsm_proto.Engine.stache m in
  let a = Aggregate.create_2d m ~name:"g" ~rows:4 ~cols:4 ~dist:Distribution.Row_block () in
  Aggregate.write2 a ~node:(Aggregate.owner2 a 2 3) 2 3 ~field:0 1.25;
  check (Alcotest.float 0.0) "read back" 1.25 (Aggregate.read2 a ~node:0 2 3 ~field:0);
  check (Alcotest.float 0.0) "peek" 1.25 (Aggregate.peek2 a 2 3 ~field:0)

let test_aggregate_bounds () =
  let m = machine () in
  let a = Aggregate.create_1d m ~name:"x" ~n:4 ~dist:Distribution.Block1d () in
  Alcotest.(check bool) "out of range raises" true
    (try
       ignore (Aggregate.addr1 a 4 ~field:0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad field raises" true
    (try
       ignore (Aggregate.addr1 a 0 ~field:1);
       false
     with Invalid_argument _ -> true)

(* -- Shared heap ---------------------------------------------------------- *)

let test_heap_homing_and_distinct () =
  let m = machine () in
  let h = Shared_heap.create m in
  let a1 = Shared_heap.alloc h ~node:2 ~words:3 in
  let a2 = Shared_heap.alloc h ~node:2 ~words:3 in
  let a3 = Shared_heap.alloc h ~node:1 ~words:3 in
  check Alcotest.int "homed on 2" 2 (Machine.home m (Machine.block_of m a1));
  check Alcotest.int "homed on 1" 1 (Machine.home m (Machine.block_of m a3));
  Alcotest.(check bool) "bump allocates fresh" true (a2 >= a1 + 3);
  check Alcotest.int "used words" 6 (Shared_heap.allocated_words h ~node:2)

let test_heap_small_objects_share_blocks () =
  let m = machine () in
  let h = Shared_heap.create m in
  let a1 = Shared_heap.alloc h ~node:0 ~words:1 in
  let a2 = Shared_heap.alloc h ~node:0 ~words:1 in
  check Alcotest.int "same cache block" (Machine.block_of m a1) (Machine.block_of m a2)

let test_heap_large_object () =
  let m = machine () in
  let h = Shared_heap.create ~arena_blocks:4 m in
  let a = Shared_heap.alloc h ~node:0 ~words:64 in
  check Alcotest.int "large homed correctly" 0 (Machine.home m (Machine.block_of m a))

(* -- Runtime -------------------------------------------------------------- *)

let small_runtime protocol =
  Runtime.create
    ~cfg:(Machine.default_config ~num_nodes:4 ~block_bytes:32 ())
    ~protocol ()

let test_parallel_for_runs_all () =
  let rt = small_runtime Runtime.Stache in
  let m = Runtime.machine rt in
  let a = Aggregate.create_1d m ~name:"x" ~n:10 ~dist:Distribution.Block1d () in
  let hits = Array.make 10 0 in
  Runtime.parallel_for_1d rt a (fun ~node ~i ->
      hits.(i) <- hits.(i) + 1;
      check Alcotest.int "runs on owner" (Aggregate.owner1 a i) node);
  Array.iteri (fun i h -> check Alcotest.int (Printf.sprintf "element %d once" i) 1 h) hits

let test_parallel_for_2d_runs_all () =
  let rt = small_runtime Runtime.Stache in
  let m = Runtime.machine rt in
  let a = Aggregate.create_2d m ~name:"g" ~rows:5 ~cols:3 ~dist:Distribution.Row_block () in
  let count = ref 0 in
  Runtime.parallel_for_2d rt a (fun ~node:_ ~i:_ ~j:_ -> incr count);
  check Alcotest.int "all elements" 15 !count

let test_parallel_for_charges_and_barriers () =
  let rt = small_runtime Runtime.Stache in
  let m = Runtime.machine rt in
  let a = Aggregate.create_1d m ~name:"x" ~n:8 ~dist:Distribution.Block1d () in
  Runtime.parallel_for_1d rt a (fun ~node:_ ~i:_ -> ());
  (* After the implicit barrier all nodes have equal time. *)
  let t0 = Machine.time m ~node:0 in
  for n = 1 to 3 do
    check (Alcotest.float 1e-9) "times equal" t0 (Machine.time m ~node:n)
  done;
  (* Two access-free tasks per node at 1 µs each. *)
  check (Alcotest.float 0.0) "compute charged" 2.0 (Machine.bucket_time m ~node:0 Machine.Compute)

let test_predictive_runtime_improves_second_iteration () =
  let rt = small_runtime Runtime.Predictive in
  let m = Runtime.machine rt in
  let a = Aggregate.create_1d m ~name:"x" ~n:8 ~dist:Distribution.Block1d () in
  let producer = Runtime.make_phase rt ~name:"produce" ~scheduled:true in
  let consumer = Runtime.make_phase rt ~name:"consume" ~scheduled:true in
  let iteration k =
    Runtime.parallel_for_1d rt ~phase:producer a (fun ~node ~i ->
        Aggregate.write1 a ~node i ~field:0 (float_of_int (k + i)));
    (* Each element's owner reads its right neighbour (wraparound). *)
    Runtime.parallel_for_1d rt ~phase:consumer a (fun ~node ~i ->
        ignore (Aggregate.read1 a ~node ((i + 1) mod 8) ~field:0))
  in
  iteration 0;
  let faults_after_1 = (Machine.total_counters m).Machine.read_faults in
  iteration 1;
  iteration 2;
  let faults_after_3 = (Machine.total_counters m).Machine.read_faults in
  check Alcotest.int "no demand read faults after first iteration" faults_after_1 faults_after_3

let test_allreduce () =
  let rt = small_runtime Runtime.Stache in
  let v = Runtime.allreduce_sum rt (fun node -> float_of_int node) in
  check (Alcotest.float 1e-9) "sum" 6.0 v;
  Alcotest.(check bool) "messages counted" true
    ((Machine.total_counters (Runtime.machine rt)).Machine.msgs >= 4)

let test_time_breakdown_consistency () =
  let rt = small_runtime Runtime.Stache in
  let m = Runtime.machine rt in
  let a = Aggregate.create_1d m ~name:"x" ~n:8 ~dist:Distribution.Block1d () in
  Runtime.parallel_for_1d rt a (fun ~node ~i ->
      ignore (Aggregate.read1 a ~node ((i + 3) mod 8) ~field:0));
  let breakdown = Runtime.time_breakdown rt in
  let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 breakdown in
  (* After a barrier every node has the same total, which equals the bucket
     mean sum. *)
  check (Alcotest.float 1e-6) "breakdown sums to total" (Runtime.total_time rt) sum

let test_flush_phase () =
  let rt = small_runtime Runtime.Predictive in
  let m = Runtime.machine rt in
  let a = Aggregate.create_1d m ~name:"x" ~n:8 ~dist:Distribution.Block1d () in
  let ph = Runtime.make_phase rt ~name:"p" ~scheduled:true in
  Runtime.parallel_for_1d rt ~phase:ph a (fun ~node ~i ->
      ignore (Aggregate.read1 a ~node ((i + 1) mod 8) ~field:0));
  let p = Option.get (Runtime.predictive rt) in
  (match Ccdsm_core.Predictive.schedule p ~phase:(Runtime.phase_id ph) with
  | Some s -> Alcotest.(check bool) "schedule non-empty" true (Ccdsm_core.Schedule.cardinal s > 0)
  | None -> Alcotest.fail "expected schedule");
  Runtime.flush_phase rt ph;
  match Ccdsm_core.Predictive.schedule p ~phase:(Runtime.phase_id ph) with
  | Some s -> check Alcotest.int "flushed" 0 (Ccdsm_core.Schedule.cardinal s)
  | None -> ()

let suite =
  [
    ( "runtime.distribution",
      [
        test_chunk_partition;
        test_owner_rank_consistency_1d;
        test_owner_rank_consistency_2d;
        Alcotest.test_case "validation" `Quick test_distribution_validation;
        Alcotest.test_case "validation (all arms)" `Quick
          test_distribution_validation_exhaustive;
        Alcotest.test_case "cyclic edge cases" `Quick test_distribution_cyclic_edges;
        Alcotest.test_case "tiled fixed example" `Quick test_distribution_tiled_fixed;
        Alcotest.test_case "pp" `Quick test_distribution_pp;
      ] );
    ( "runtime.aggregate",
      [
        Alcotest.test_case "homing" `Quick test_aggregate_homing;
        Alcotest.test_case "distinct addresses" `Quick test_aggregate_distinct_addrs;
        Alcotest.test_case "read/write" `Quick test_aggregate_rw;
        Alcotest.test_case "bounds" `Quick test_aggregate_bounds;
      ] );
    ( "runtime.heap",
      [
        Alcotest.test_case "homing and distinctness" `Quick test_heap_homing_and_distinct;
        Alcotest.test_case "small objects share blocks" `Quick test_heap_small_objects_share_blocks;
        Alcotest.test_case "large objects" `Quick test_heap_large_object;
      ] );
    ( "runtime.exec",
      [
        Alcotest.test_case "parallel_for covers 1-D" `Quick test_parallel_for_runs_all;
        Alcotest.test_case "parallel_for covers 2-D" `Quick test_parallel_for_2d_runs_all;
        Alcotest.test_case "charges and barriers" `Quick test_parallel_for_charges_and_barriers;
        Alcotest.test_case "predictive improves iteration 2" `Quick
          test_predictive_runtime_improves_second_iteration;
        Alcotest.test_case "allreduce" `Quick test_allreduce;
        Alcotest.test_case "time breakdown" `Quick test_time_breakdown_consistency;
        Alcotest.test_case "flush phase" `Quick test_flush_phase;
      ] );
  ]
