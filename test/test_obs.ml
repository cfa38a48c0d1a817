(* lib/obs unit tests, exporter golden files, and the cross-layer
   determinism / agreement properties the metrics subsystem promises:

   - instruments are typed, labelled, find-or-create, and validated;
   - histogram bucket edges behave exactly (edge-inclusive, overflow);
   - the merged snapshot is byte-identical at any job count;
   - a run with no sink installed does no metrics work;
   - a trace-derived registry agrees with the live one to the exact integer
     on every shared counter.

   Exporter goldens regenerate like the trace goldens:

     CCDSM_UPDATE_GOLDEN=1 dune runtest
     cp _build/default/test/golden-new/metrics.* test/golden/ *)

open Alcotest
module Obs = Ccdsm_obs.Obs
module Export = Ccdsm_obs.Export
module Machine = Ccdsm_tempest.Machine
module Trace = Ccdsm_tempest.Trace
module Runtime = Ccdsm_runtime.Runtime
module Measure = Ccdsm_harness.Measure
module Parjobs = Ccdsm_harness.Parjobs
module Trace_metrics = Ccdsm_harness.Trace_metrics
module Water = Ccdsm_apps.Water

(* -- instruments ---------------------------------------------------------- *)

let test_counter_gauge_basics () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "c_total" in
  Obs.Counter.inc c;
  Obs.Counter.add c 4;
  check int "counter" 5 (Obs.Counter.value c);
  let g = Obs.Registry.gauge reg "g" in
  Obs.Gauge.set g 2.5;
  Obs.Gauge.add g 1.0;
  check (float 1e-9) "gauge" 3.5 (Obs.Gauge.value g)

let test_find_or_create_label_order () =
  let reg = Obs.Registry.create () in
  let a = Obs.Registry.counter reg ~labels:[ ("x", "1"); ("y", "2") ] "c_total" in
  let b = Obs.Registry.counter reg ~labels:[ ("y", "2"); ("x", "1") ] "c_total" in
  Obs.Counter.inc a;
  Obs.Counter.inc b;
  (* Same canonical identity: both handles hit the same cell. *)
  check int "one instrument" 2 (Obs.Counter.value a);
  check int "cardinality" 1 (Obs.Registry.cardinality reg)

let test_label_cardinality () =
  let reg = Obs.Registry.create () in
  for i = 0 to 9 do
    Obs.Counter.inc
      (Obs.Registry.counter reg ~labels:[ ("node", string_of_int i) ] "per_node_total")
  done;
  check int "ten label sets" 10 (Obs.Registry.cardinality reg);
  check int "snapshot rows" 10 (List.length (Obs.Registry.snapshot reg))

let test_type_conflict_and_bad_name () =
  let reg = Obs.Registry.create () in
  ignore (Obs.Registry.counter reg "c_total");
  check_raises "type conflict"
    (Invalid_argument "Obs: c_total already registered with another type") (fun () ->
      ignore (Obs.Registry.gauge reg "c_total"));
  check bool "bad name rejected" true
    (try
       ignore (Obs.Registry.counter reg "bad name");
       false
     with Invalid_argument _ -> true)

(* -- histograms ----------------------------------------------------------- *)

let test_histogram_edges () =
  let reg = Obs.Registry.create () in
  let h = Obs.Registry.histogram reg ~edges:[| 1.0; 2.0; 4.0 |] "h" in
  (* Edge-inclusive: a value exactly on an edge lands in that bucket. *)
  List.iter (Obs.Histogram.observe h) [ 0.5; 1.0; 1.5; 2.0; 4.0; 4.1; 100.0 ];
  check (array int) "counts" [| 2; 2; 1; 2 |] (Obs.Histogram.counts h);
  check int "count" 7 (Obs.Histogram.count h);
  check (float 1e-9) "sum" 113.1 (Obs.Histogram.sum h)

let test_histogram_quantiles () =
  let reg = Obs.Registry.create () in
  let empty = Obs.Registry.histogram reg ~edges:[| 1.0; 2.0 |] "empty" in
  check (float 0.0) "empty quantile" 0.0 (Obs.Histogram.quantile empty 0.5);
  let h = Obs.Registry.histogram reg ~edges:[| 10.0; 20.0 |] "h" in
  (* 10 observations in (0,10]: p50 interpolates to the bucket midpoint. *)
  for _ = 1 to 10 do
    Obs.Histogram.observe h 5.0
  done;
  check (float 1e-9) "p50 mid-bucket" 5.0 (Obs.Histogram.quantile h 0.5);
  check (float 1e-9) "p100 bucket edge" 10.0 (Obs.Histogram.quantile h 1.0);
  (* Overflow ranks clamp to the last finite edge. *)
  Obs.Histogram.observe h 1000.0;
  check (float 1e-9) "overflow clamps" 20.0 (Obs.Histogram.quantile h 1.0)

let test_histogram_bad_edges () =
  let reg = Obs.Registry.create () in
  check bool "non-increasing edges rejected" true
    (try
       ignore (Obs.Registry.histogram reg ~edges:[| 2.0; 1.0 |] "bad");
       false
     with Invalid_argument _ -> true)

(* -- merge and spans ------------------------------------------------------ *)

let test_merge_into () =
  let child = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter child "c_total") 3;
  Obs.Gauge.set (Obs.Registry.gauge child "g") 1.5;
  Obs.Histogram.observe (Obs.Registry.histogram child ~edges:[| 1.0; 2.0 |] "h") 1.5;
  let into = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter into ~labels:[ ("v", "a") ] "c_total") 10;
  Obs.Registry.merge_into ~into ~labels:[ ("v", "a") ] child;
  Obs.Registry.merge_into ~into ~labels:[ ("v", "b") ] child;
  let snap = Obs.Registry.snapshot into in
  check (float 0.0) "counters add under the relabel" 13.0
    (Option.get (Obs.find snap ~labels:[ ("v", "a") ] "c_total"));
  check (float 0.0) "second label set separate" 3.0
    (Option.get (Obs.find snap ~labels:[ ("v", "b") ] "c_total"));
  check (float 1e-9) "histogram merged (find yields sum)" 1.5
    (Option.get (Obs.find snap ~labels:[ ("v", "a") ] "h"));
  (* Histogram edge shape must match across the merge. *)
  let other = Obs.Registry.create () in
  Obs.Histogram.observe (Obs.Registry.histogram other ~edges:[| 9.0 |] "h") 1.0;
  check bool "edge mismatch rejected" true
    (try
       Obs.Registry.merge_into ~into ~labels:[ ("v", "a") ] other;
       false
     with Invalid_argument _ -> true)

let test_phase_span () =
  let reg = Obs.Registry.create () in
  let x = ref 10.0 in
  let watch () = [ ("total_us", !x) ] in
  let r =
    Obs.phase_span reg ~phase:3 ~name:"sweep" ~watch (fun () ->
        x := 14.0;
        "done")
  in
  check string "result passes through" "done" r;
  (try
     Obs.phase_span reg ~phase:4 ~name:"sweep" ~watch (fun () ->
         x := 15.0;
         failwith "boom")
   with Failure _ -> ());
  match Obs.Registry.spans reg with
  | [ a; b ] ->
      check int "phase" 3 a.Obs.phase;
      check (float 1e-9) "delta" 4.0 (List.assoc "total_us" a.Obs.deltas);
      check int "recorded on raise" 4 b.Obs.phase;
      check (float 1e-9) "delta on raise" 1.0 (List.assoc "total_us" b.Obs.deltas)
  | spans -> failf "expected 2 spans, got %d" (List.length spans)

let test_float_to_string () =
  check string "integral" "3" (Obs.float_to_string 3.0);
  check string "negative integral" "-12" (Obs.float_to_string (-12.0));
  check string "fractional" "0.5" (Obs.float_to_string 0.5);
  check string "12 significant digits" "3.14159265359" (Obs.float_to_string Float.pi)

(* -- exporter goldens ----------------------------------------------------- *)

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
      failf "missing golden file %s (run with CCDSM_UPDATE_GOLDEN=1)" path;
    check (list string) name
      (String.split_on_char '\n' (read_file path))
      (String.split_on_char '\n' actual)
  end

let golden_registry () =
  let reg = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter reg ~labels:[ ("op", "read") ] "demo_requests_total") 3;
  Obs.Counter.inc (Obs.Registry.counter reg ~labels:[ ("op", "write") ] "demo_requests_total");
  Obs.Gauge.set (Obs.Registry.gauge reg ~labels:[ ("site", "node 0") ] "demo_temperature") 36.5;
  let h = Obs.Registry.histogram reg ~edges:[| 1.0; 2.0; 4.0 |] "demo_latency" in
  List.iter (Obs.Histogram.observe h) [ 0.5; 1.5; 3.0; 9.0 ];
  Obs.Registry.record_span reg ~phase:0 ~name:"sweep" [ ("total_us", 12.0) ];
  Obs.Registry.record_span reg ~phase:1 ~name:"sweep" [ ("total_us", 14.0) ];
  Obs.Registry.record_span reg ~phase:1 ~name:"exchange"
    ~labels:[ ("dir", "up") ]
    [ ("total_us", 3.5) ];
  reg

let test_golden_prometheus () = check_golden "metrics.prom" (Export.prometheus (golden_registry ()))
let test_golden_json () = check_golden "metrics.json" (Export.json (golden_registry ()))

(* -- determinism across job counts --------------------------------------- *)

let tiny_water = { Water.small with Water.n_molecules = 24; iterations = 2 }

let water_version label protocol =
  Measure.version ~label ~protocol ~block_bytes:32 (fun rt ->
      (Water.run rt tiny_water).Water.checksum)

let export_at_jobs jobs =
  let reg = Obs.Registry.create () in
  Obs.set_global (Some reg);
  Fun.protect
    ~finally:(fun () -> Obs.set_global None)
    (fun () ->
      ignore
        (Parjobs.map ~jobs
           (fun (label, protocol) ->
             Measure.measure ~num_nodes:4 ~app:"water" (water_version label protocol))
           [
             ("a", Runtime.Stache);
             ("b", Runtime.Predictive);
             ("c", Runtime.Stache);
             ("d", Runtime.Predictive);
           ]));
  Export.prometheus reg

let test_snapshot_deterministic_across_jobs () =
  check (list string) "prometheus text byte-identical at jobs=1 vs jobs=4"
    (String.split_on_char '\n' (export_at_jobs 1))
    (String.split_on_char '\n' (export_at_jobs 4))

(* -- no-sink path --------------------------------------------------------- *)

let test_no_sink_unmetered () =
  check bool "no global registry" true (Obs.global () = None);
  let m = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) in
  check bool "machine unobserved" false (Machine.observed m);
  check bool "no registry handle" true (Machine.obs m = None);
  (* Always-on accounting still lands in the measurement snapshot. *)
  let meas = Measure.measure ~num_nodes:4 (water_version "w" Runtime.Predictive) in
  check bool "run totals present without a sink" true
    (Measure.stat meas "ccdsm_run_total_us" > 0.0);
  check bool "demand misses present without a sink" true
    (Measure.stat ~labels:[ ("op", "read") ] meas "ccdsm_machine_demand_misses_total" > 0.0)

let test_no_sink_overhead () =
  (* The unmetered hot path must not pay for metrics: compare local-read
     loops with and without a registry installed.  The bound is deliberately
     loose (shared-CI noise), but a pathological always-on cost would blow
     straight through it. *)
  let loop metered =
    if metered then Obs.set_global (Some (Obs.Registry.create ()));
    Fun.protect
      ~finally:(fun () -> Obs.set_global None)
      (fun () ->
        let m = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) in
        let _ = Ccdsm_proto.Engine.stache m in
        let a = Machine.alloc m ~words:64 ~home:0 in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to 200_000 do
          ignore (Sys.opaque_identity (Machine.read m ~node:0 a))
        done;
        Unix.gettimeofday () -. t0)
  in
  let metered = loop true in
  let bare = loop false in
  check bool
    (Printf.sprintf "no-sink reads not slower (bare %.4fs vs metered %.4fs)" bare metered)
    true
    (bare <= (metered *. 4.0) +. 0.05)

(* -- trace-derived metrics agree with the live registry ------------------- *)

let sum_counter snap name required =
  List.fold_left
    (fun acc (r : Obs.row) ->
      match r.Obs.value with
      | Obs.VCounter v
        when r.Obs.name = name
             && List.for_all (fun kv -> List.mem kv r.Obs.labels) required ->
          acc + v
      | _ -> acc)
    0 snap

let test_trace_metrics_agree () =
  let buf = Buffer.create 65536 in
  let reg = Obs.Registry.create () in
  Trace.set_global
    (Some
       (fun ev ->
         Buffer.add_string buf (Trace.to_json ev);
         Buffer.add_char buf '\n'));
  Obs.set_global (Some reg);
  ignore
    (Fun.protect
       ~finally:(fun () ->
         Obs.set_global None;
         Trace.set_global None)
       (fun () -> Measure.measure ~num_nodes:4 ~app:"water" (water_version "w" Runtime.Predictive)));
  let path = Filename.temp_file "ccdsm-trace" ".jsonl" in
  let derived =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        output_string oc (Buffer.contents buf);
        close_out oc;
        Trace_metrics.of_file path)
  in
  match derived with
  | Error e -> fail e
  | Ok derived ->
      let d = Obs.Registry.snapshot derived and live = Obs.Registry.snapshot reg in
      List.iter
        (fun (name, required) ->
          check int
            (name ^ String.concat "" (List.map (fun (k, v) -> "{" ^ k ^ "=" ^ v ^ "}") required))
            (sum_counter d name required) (sum_counter live name required))
        [
          ("ccdsm_machine_demand_misses_total", [ ("op", "read") ]);
          ("ccdsm_machine_demand_misses_total", [ ("op", "write") ]);
          ("ccdsm_presend_grants_total", [ ("op", "read") ]);
          ("ccdsm_presend_grants_total", [ ("op", "write") ]);
          ("ccdsm_engine_retries_total", []);
          ("ccdsm_net_msgs_total", []);
          ("ccdsm_net_bytes_total", []);
          ("ccdsm_net_send_total", [ ("kind", "data") ]);
          ("ccdsm_net_send_bytes_total", [ ("kind", "data") ]);
          ("ccdsm_sched_records_total", []);
          ("ccdsm_presend_fallbacks_total", []);
          ("ccdsm_faults_injected_total", [ ("kind", "drop") ]);
          ("ccdsm_tag_transitions_total", []);
        ]

let test_trace_metrics_errors () =
  (match Trace_metrics.of_file "does_not_exist.jsonl" with
  | Error _ -> ()
  | Ok _ -> fail "missing file accepted");
  let path = Filename.temp_file "ccdsm-bad-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "this is not json\n";
      close_out oc;
      match Trace_metrics.of_file path with
      | Error msg -> check bool "error names the parse failure" true (String.length msg > 0)
      | Ok _ -> fail "garbage accepted")

let suite =
  [
    ( "obs.instruments",
      [
        test_case "counter/gauge basics" `Quick test_counter_gauge_basics;
        test_case "label order canonical" `Quick test_find_or_create_label_order;
        test_case "label cardinality" `Quick test_label_cardinality;
        test_case "type conflict / bad name" `Quick test_type_conflict_and_bad_name;
      ] );
    ( "obs.histogram",
      [
        test_case "bucket edges" `Quick test_histogram_edges;
        test_case "quantiles" `Quick test_histogram_quantiles;
        test_case "bad edges" `Quick test_histogram_bad_edges;
      ] );
    ( "obs.registry",
      [
        test_case "merge_into" `Quick test_merge_into;
        test_case "phase_span" `Quick test_phase_span;
        test_case "float rendering" `Quick test_float_to_string;
      ] );
    ( "obs.export",
      [
        test_case "prometheus golden" `Quick test_golden_prometheus;
        test_case "json golden" `Quick test_golden_json;
      ] );
    ( "obs.determinism",
      [
        test_case "snapshot byte-identical across jobs" `Slow
          test_snapshot_deterministic_across_jobs;
      ] );
    ( "obs.nosink",
      [
        test_case "unmetered machine" `Quick test_no_sink_unmetered;
        test_case "no overhead" `Slow test_no_sink_overhead;
      ] );
    ( "obs.trace",
      [
        test_case "trace-derived metrics agree" `Slow test_trace_metrics_agree;
        test_case "derivation errors" `Quick test_trace_metrics_errors;
      ] );
  ]
