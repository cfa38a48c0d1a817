(* Bechamel micro-benchmarks: host time per regeneration of each table and
   figure at tiny sizes, and per operation on the protocol, compiler and
   observer hot paths.  End-to-end wall time (the figure drivers, the serve
   daemon) is perfbench's job (perfbench/run.sh); `repro all` prints the
   tables and figures themselves.

   dune exec bench/main.exe           # print the Bechamel table
   dune exec bench/main.exe -- --json [FILE]
                                      # also write the ns/op per row as JSON
                                      # (default FILE: BENCH.json)

   After the rows it checks the ratio bounds below and exits 1 if one
   fails. *)

open Bechamel
open Toolkit
module E = Ccdsm_harness.Experiments
module Measure_h = Ccdsm_harness.Measure
module Machine = Ccdsm_tempest.Machine
module Runtime = Ccdsm_runtime.Runtime
module Aggregate = Ccdsm_runtime.Aggregate
module Distribution = Ccdsm_runtime.Distribution
module Schedule = Ccdsm_core.Schedule
module Predictive = Ccdsm_core.Predictive
module Adaptive = Ccdsm_apps.Adaptive
module Barnes = Ccdsm_apps.Barnes
module Water = Ccdsm_apps.Water
module Cstar = Ccdsm_cstar

(* -- Bechamel tests ------------------------------------------------------------ *)

(* Tiny configurations so each timed sample stays in the milliseconds. *)
let tiny_adaptive = { Adaptive.small with Adaptive.n = 32; iterations = 4 }
let tiny_barnes = { Barnes.small with Barnes.n_bodies = 512; iterations = 1 }
let tiny_water = { Water.small with Water.n_molecules = 64; iterations = 2 }

let small_machine () = Machine.default_config ~num_nodes:8 ~block_bytes:32 ()

let bench_version protocol run =
  Measure_h.measure ~num_nodes:8 (Measure_h.version ~label:"bench" ~protocol ~block_bytes:32 run)

let test_table1 =
  Test.make ~name:"table1" (Staged.stage (fun () -> Sys.opaque_identity (E.table1 E.Scaled)))

let test_fig4 =
  Test.make ~name:"fig4-compiler-report" (Staged.stage (fun () -> Sys.opaque_identity (E.fig4 ())))

let test_fig5 =
  Test.make ~name:"fig5-adaptive"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (bench_version Runtime.Predictive (fun rt ->
                (Adaptive.run rt tiny_adaptive).Adaptive.checksum))))

let test_fig6 =
  Test.make ~name:"fig6-barnes"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (bench_version Runtime.Predictive (fun rt ->
                (Barnes.run rt tiny_barnes).Barnes.checksum))))

let test_fig7 =
  Test.make ~name:"fig7-water"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (bench_version Runtime.Predictive (fun rt ->
                (Water.run rt tiny_water).Water.checksum))))

let test_sweep_point =
  Test.make ~name:"sweep-point-unopt"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (bench_version Runtime.Stache (fun rt ->
                (Water.run rt tiny_water).Water.checksum))))

let test_ablation_point =
  Test.make ~name:"ablation-no-coalesce"
    (Staged.stage (fun () ->
         let v =
           Measure_h.version ~label:"bench" ~protocol:Runtime.Predictive ~block_bytes:32
             ~coalesce:false (fun rt -> (Water.run rt tiny_water).Water.checksum)
         in
         Sys.opaque_identity (Measure_h.measure ~num_nodes:8 v)))

(* Micro-benchmarks of the protocol and compiler hot paths. *)

let test_demand_miss =
  Test.make ~name:"micro-stache-demand-miss"
    (Staged.stage
       (let m = Machine.create (small_machine ()) in
        let _ = Ccdsm_proto.Engine.stache m in
        let a = Machine.alloc m ~words:4 ~home:0 in
        let turn = ref 0 in
        fun () ->
          (* Alternate writer/readers so every access faults. *)
          turn := (!turn + 1) land 3;
          if !turn = 0 then Machine.write m ~node:1 a 1.0
          else ignore (Sys.opaque_identity (Machine.read m ~node:(2 + (!turn land 1)) a))))

let test_local_hit =
  Test.make ~name:"micro-local-hit"
    (Staged.stage
       (let m = Machine.create (small_machine ()) in
        let _ = Ccdsm_proto.Engine.stache m in
        let a = Machine.alloc m ~words:4 ~home:0 in
        fun () -> ignore (Sys.opaque_identity (Machine.read m ~node:0 a))))

let test_schedule_record =
  Test.make ~name:"micro-schedule-record"
    (Staged.stage
       (let s = Schedule.create () in
        let i = ref 0 in
        fun () ->
          incr i;
          Schedule.record_read s (!i land 1023) ~reader:(!i land 7)))

let test_presend =
  Test.make ~name:"micro-presend-1k-blocks"
    (Staged.stage
       (let m = Machine.create (small_machine ()) in
        let p = Predictive.create m in
        let coh = Predictive.coherence p in
        let a = Machine.alloc m ~words:4096 ~home:0 in
        (* Build a 1024-block schedule once. *)
        coh.Ccdsm_proto.Coherence.phase_begin ~phase:0;
        for b = 0 to 1023 do
          ignore (Machine.read m ~node:1 (a + (b * 4)))
        done;
        coh.Ccdsm_proto.Coherence.phase_end ~phase:0;
        fun () ->
          coh.Ccdsm_proto.Coherence.phase_begin ~phase:0;
          coh.Ccdsm_proto.Coherence.phase_end ~phase:0))

let test_dataflow =
  Test.make ~name:"micro-dataflow-solve"
    (Staged.stage
       (let c = Cstar.Compile.compile_exn Ccdsm_apps.Water.skeleton_src in
        let sema = c.Cstar.Compile.sema in
        fun () ->
          Sys.opaque_identity
            (Cstar.Reaching.analyze sema sema.Cstar.Sema.prog.Cstar.Ast.main)))

let test_compile =
  Test.make ~name:"micro-compile-adaptive-skeleton"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Cstar.Compile.compile_exn Ccdsm_apps.Adaptive.skeleton_src)))

let test_bulk_runs =
  Test.make ~name:"micro-bulk-runs"
    (Staged.stage
       (let blocks = List.init 256 (fun i -> (i * 7) mod 512) in
        fun () -> Sys.opaque_identity (Ccdsm_proto.Bulk.runs blocks)))

let test_aggregate_addr =
  Test.make ~name:"micro-aggregate-addr"
    (Staged.stage
       (let m = Machine.create (small_machine ()) in
        let agg =
          Aggregate.create_2d m ~name:"bench" ~elem_words:4 ~rows:64 ~cols:64
            ~dist:Distribution.Row_block ()
        in
        let i = ref 0 in
        fun () ->
          incr i;
          let r = !i land 63 and c = (!i * 7) land 63 in
          ignore (Sys.opaque_identity (Aggregate.addr2 agg r c ~field:(!i land 3)))))

let test_flat_tag_lookup =
  Test.make ~name:"micro-flat-tag-lookup"
    (Staged.stage
       (* Tag reads out of the flat (node x block) Bigarray at the full
          1024-node machine size — the hot load of every coherence check. *)
       (let m = Machine.create (Machine.default_config ~num_nodes:1024 ~block_bytes:32 ()) in
        let a = Machine.alloc m ~words:4096 ~home:0 in
        let b0 = a / Machine.words_per_block m in
        let i = ref 0 in
        fun () ->
          incr i;
          ignore
            (Sys.opaque_identity
               (Machine.tag m ~node:(!i land 1023) (b0 + (!i land 1023))))))

let test_directory_hit =
  Test.make ~name:"micro-directory-hit"
    (Staged.stage
       (* Directory lookups in the flat store, 1024 blocks spread across all
          64 homes. *)
       (let m = Machine.create (Machine.default_config ~num_nodes:64 ~block_bytes:32 ()) in
        let wpb = Machine.words_per_block m in
        let blocks =
          Array.init 64 (fun h -> Machine.alloc m ~words:(16 * wpb) ~home:h / wpb)
          |> Array.to_list
          |> List.concat_map (fun b0 -> List.init 16 (fun k -> b0 + k))
          |> Array.of_list
        in
        let dir = Ccdsm_proto.Directory.create m in
        Array.iter
          (fun b -> Ccdsm_proto.Directory.set dir b (Ccdsm_proto.Directory.Exclusive (Machine.home m b)))
          blocks;
        let i = ref 0 in
        fun () ->
          incr i;
          ignore (Sys.opaque_identity (Ccdsm_proto.Directory.get dir blocks.(!i land 1023)))))

let test_phase_step_1024 =
  Test.make ~name:"micro-phase-step-1024-nodes"
    (Staged.stage
       (* One full presend phase step on a 1024-node machine: 1024 scheduled
          blocks, readers spread over the node range. *)
       (let m = Machine.create (Machine.default_config ~num_nodes:1024 ~block_bytes:32 ()) in
        let p = Predictive.create m in
        let coh = Predictive.coherence p in
        let a = Machine.alloc m ~words:4096 ~home:0 in
        coh.Ccdsm_proto.Coherence.phase_begin ~phase:0;
        for b = 0 to 1023 do
          ignore (Machine.read m ~node:((b * 7) land 1023) (a + (b * 4)))
        done;
        coh.Ccdsm_proto.Coherence.phase_end ~phase:0;
        fun () ->
          coh.Ccdsm_proto.Coherence.phase_begin ~phase:0;
          coh.Ccdsm_proto.Coherence.phase_end ~phase:0))

let test_presend_cached_sort =
  Test.make ~name:"micro-presend-cached-sort"
    (Staged.stage
       (let s = Schedule.create () in
        (* Record 1024 keys once, then iterate: after the first call the
           sorted key array is served from the cache. *)
        for b = 0 to 1023 do
          Schedule.record_read s ((b * 17) land 1023) ~reader:(b land 7)
        done;
        let acc = ref 0 in
        fun () ->
          acc := 0;
          Schedule.iter_sorted s (fun b _ -> acc := !acc + b);
          ignore (Sys.opaque_identity !acc)))

(* A read or write hit on a stache machine after [attach] (given the machine
   and its engine): the observer rows.  With nothing attached a read must
   cost the micro-local-hit level, the one-flag hot path; the sanitized rows
   are the checked access path every served simulation, sweep cell and
   fault-grid row runs: the audited hit, which tests the pending stable
   point and, for the write, the race stamp, then records the access in the
   sanitizer's ring. *)
let observed_hit ~name ~write attach =
  Test.make ~name
    (Staged.stage
       (let m = Machine.create (small_machine ()) in
        let eng, _ = Ccdsm_proto.Engine.stache m in
        let a = Machine.alloc m ~words:512 ~home:0 in
        attach m eng;
        let i = ref 0 in
        if write then fun () ->
          incr i;
          Machine.write m ~node:0 (a + (!i land 511)) 1.0
        else fun () ->
          incr i;
          ignore (Sys.opaque_identity (Machine.read m ~node:0 (a + (!i land 511))))))

let sanitize m eng = ignore (Ccdsm_proto.Sanitizer.attach ~dir:eng.Ccdsm_proto.Engine.dir m)

let test_read_unprofiled = observed_hit ~name:"micro-read-unprofiled" ~write:false (fun _ _ -> ())

let test_read_profiled =
  observed_hit ~name:"micro-read-profiled" ~write:false (fun m _ ->
      ignore (Ccdsm_rdist.Profile.attach ~app:"bench" ~protocol:"stache" ~arena_blocks:64 m))

let test_timeline_record =
  observed_hit ~name:"micro-timeline-record" ~write:false (fun m _ ->
      ignore (Ccdsm_tempest.Timecap.attach m))

let test_read_sanitized = observed_hit ~name:"micro-read-sanitized" ~write:false sanitize
let test_write_sanitized = observed_hit ~name:"micro-write-sanitized" ~write:true sanitize

let test_predict_point =
  Test.make ~name:"micro-predict-point"
    (Staged.stage
       (* One analytical-model evaluation (a full replay at a fresh block
          size) on the jacobi validation profile — the serve predict warm
          path before grid precomputation. *)
       (let app =
          List.find
            (fun a -> a.Ccdsm_harness.Predict_check.app_name = "jacobi")
            (Ccdsm_harness.Predict_check.apps ())
        in
        let profile =
          Ccdsm_harness.Predict_check.collect_profile app ~block_bytes:32
            ~protocol:Ccdsm_rdist.Model.Stache
        in
        let pr =
          match
            Ccdsm_rdist.Model.prepare profile ~net:Ccdsm_tempest.Network.default
              ~protocol:Ccdsm_rdist.Model.Stache
          with
          | Ok pr -> pr
          | Error msg -> failwith msg
        in
        let blocks = [| 64; 128; 256 |] in
        let i = ref 0 in
        fun () ->
          incr i;
          ignore
            (Sys.opaque_identity
               (Ccdsm_rdist.Model.eval pr ~block_bytes:blocks.(!i mod 3)))))

let tests =
  Test.make_grouped ~name:"ccdsm"
    [
      test_table1;
      test_fig4;
      test_fig5;
      test_fig6;
      test_fig7;
      test_sweep_point;
      test_ablation_point;
      test_demand_miss;
      test_local_hit;
      test_schedule_record;
      test_presend;
      test_dataflow;
      test_compile;
      test_bulk_runs;
      test_aggregate_addr;
      test_flat_tag_lookup;
      test_directory_hit;
      test_phase_step_1024;
      test_presend_cached_sort;
      test_read_unprofiled;
      test_read_profiled;
      test_timeline_record;
      test_read_sanitized;
      test_write_sanitized;
      test_predict_point;
    ]

(* Returns [(name, ns_per_run)] sorted by name; [None] when Bechamel could
   not produce an estimate. *)
let run_benchmarks () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.sort compare rows
  |> List.map (fun (name, ols) ->
         match Analyze.OLS.estimates ols with
         | Some [ est ] -> (name, Some est)
         | _ -> (name, None))

let print_benchmarks rows =
  print_endline "== Bechamel timings (host time per regeneration/operation) ==";
  List.iter
    (fun (name, est) ->
      match est with
      | Some est ->
          let pretty =
            if est > 1e9 then Printf.sprintf "%8.2f s " (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%8.2f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%8.2f us" (est /. 1e3)
            else Printf.sprintf "%8.2f ns" est
          in
          Printf.printf "  %-36s %s/run\n" name pretty
      | None -> Printf.printf "  %-36s (no estimate)\n" name)
    rows

(* -- machine-readable output (--json) ----------------------------------------- *)

let write_json path rows =
  let entries = List.filter_map (fun (n, e) -> Option.map (fun v -> (n, v)) e) rows in
  let last = List.length entries - 1 in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"ccdsm-bench-2\",\n  \"micro_ns_per_op\": {\n";
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "    %s: %.3f%s\n" (Ccdsm_util.Json.quote name) v
        (if i = last then "" else ","))
    entries;
  Printf.fprintf oc "  }\n}\n";
  close_out oc

(* -- ratio bounds ------------------------------------------------------------- *)

(* Rows timed in this one process, against each other, so a bound holds on
   any host: a sanitized hit (an audited hit, in line in the machine) costs
   at most [ratio_bound] times an unobserved read.  All three rows come from
   [observed_hit]. *)
let ratio_bound = 2.0

let ratios_hold rows =
  print_endline "== Ratio bounds (against micro-read-unprofiled) ==";
  let est name = Option.join (List.assoc_opt ("ccdsm/" ^ name) rows) in
  List.fold_left
    (fun ok name ->
      match (est name, est "micro-read-unprofiled") with
      | Some ns, Some base ->
          let r = ns /. base in
          Printf.printf "  %-36s %6.2fx (bound %.1fx)%s\n" name r ratio_bound
            (if r <= ratio_bound then "" else "  OVER");
          ok && r <= ratio_bound
      | _ ->
          Printf.printf "  %-36s (no estimate)\n" name;
          false)
    true
    [ "micro-read-sanitized"; "micro-write-sanitized" ]

let json_mode () =
  (* "--json" or "--json FILE" anywhere on the command line. *)
  let argv = Array.to_list Sys.argv in
  let rec scan = function
    | [] -> None
    | "--json" :: path :: _ when String.length path > 0 && path.[0] <> '-' -> Some path
    | "--json" :: _ -> Some "BENCH.json"
    | _ :: rest -> scan rest
  in
  scan argv

let () =
  let rows = run_benchmarks () in
  print_benchmarks rows;
  Option.iter
    (fun path ->
      write_json path rows;
      Printf.printf "bench: wrote %s\n" path)
    (json_mode ());
  if not (ratios_hold rows) then exit 1
