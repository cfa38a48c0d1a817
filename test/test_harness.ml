(* Tests for the measurement harness and experiment drivers (at tiny sizes:
   the full figures run in bin/repro). *)

module Machine = Ccdsm_tempest.Machine
module Network = Ccdsm_tempest.Network
module Runtime = Ccdsm_runtime.Runtime
module Measure = Ccdsm_harness.Measure
module Cell = Ccdsm_harness.Cell
module E = Ccdsm_harness.Experiments
module Water = Ccdsm_apps.Water

let check = Alcotest.check

let tiny_water = { Water.small with Water.n_molecules = 32; iterations = 2 }

let water_version ?net ?coalesce protocol block_bytes =
  Measure.version ~label:"v" ~protocol ~block_bytes ?net ?coalesce (fun rt ->
      (Water.run rt tiny_water).Water.checksum)

let test_measure_consistency () =
  let m = Measure.measure ~num_nodes:4 (water_version Runtime.Stache 32) in
  (* After the final barrier all nodes have equal times, so the bucket means
     must sum to the simulated wall clock. *)
  check (Alcotest.float 1e-6) "buckets sum to total" m.Measure.total_us
    (m.Measure.compute_us +. m.Measure.remote_wait_us +. m.Measure.presend_us
   +. m.Measure.synch_us);
  Alcotest.(check bool) "nonzero time" true (m.Measure.total_us > 0.0);
  Alcotest.(check bool) "local fraction sane" true
    (m.Measure.local_fraction > 0.0 && m.Measure.local_fraction <= 1.0);
  check Alcotest.int "bucket array arity" 3 (Array.length (Measure.buckets m));
  check Alcotest.int "segment names arity" 3 (List.length Measure.segment_names)

let test_measure_deterministic () =
  let a = Measure.measure ~num_nodes:4 (water_version Runtime.Predictive 32) in
  let b = Measure.measure ~num_nodes:4 (water_version Runtime.Predictive 32) in
  check (Alcotest.float 0.0) "same total" a.Measure.total_us b.Measure.total_us;
  check (Alcotest.float 0.0) "same checksum" a.Measure.checksum b.Measure.checksum;
  check Alcotest.int "same msgs" a.Measure.counters.Machine.msgs b.Measure.counters.Machine.msgs

let test_measure_protocol_changes_time_not_values () =
  let s = Measure.measure ~num_nodes:4 (water_version Runtime.Stache 32) in
  let p = Measure.measure ~num_nodes:4 (water_version Runtime.Predictive 32) in
  check (Alcotest.float 0.0) "same physics" s.Measure.checksum p.Measure.checksum;
  Alcotest.(check bool) "different communication" true
    (s.Measure.counters.Machine.msgs <> p.Measure.counters.Machine.msgs)

let test_measure_network_override () =
  let slow = Measure.measure ~num_nodes:4 (water_version Runtime.Stache 32) in
  let fast =
    Measure.measure ~num_nodes:4 (water_version ~net:Network.hardware_dsm Runtime.Stache 32)
  in
  Alcotest.(check bool) "hardware DSM is faster" true
    (fast.Measure.total_us < slow.Measure.total_us);
  check (Alcotest.float 0.0) "same physics" slow.Measure.checksum fast.Measure.checksum

let test_measure_coalesce_override () =
  let on = Measure.measure ~num_nodes:4 (water_version Runtime.Predictive 32) in
  let off =
    Measure.measure ~num_nodes:4 (water_version ~coalesce:false Runtime.Predictive 32)
  in
  Alcotest.(check bool) "uncoalesced presend costs more" true
    (off.Measure.presend_us > on.Measure.presend_us);
  check (Alcotest.float 0.0) "same physics" on.Measure.checksum off.Measure.checksum

let test_table1_contents () =
  let t = E.table1 E.Paper in
  let contains sub =
    let n = String.length sub and m = String.length t in
    let rec go i = i + n <= m && (String.sub t i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "adaptive row" true (contains "128x128 mesh, 100 iterations");
  Alcotest.(check bool) "barnes row" true (contains "16384 bodies, 3 iterations");
  Alcotest.(check bool) "water row" true (contains "512 molecules, 20 iterations")

let test_fig4_report () =
  let r = E.fig4 () in
  let contains sub =
    let n = String.length sub and m = String.length r in
    let rec go i = i + n <= m && (String.sub r i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "4 phases" true (contains "4 phase(s) placed");
  Alcotest.(check bool) "hoisting reported" true (contains "hoisted out of loop")

let test_scale_of_env () =
  (* Without CCDSM_FULL (or with "0") the default is Scaled. *)
  match Sys.getenv_opt "CCDSM_FULL" with
  | None | Some "" | Some "0" ->
      Alcotest.(check bool) "default scaled" true (E.scale_of_env () = E.Scaled)
  | Some _ -> Alcotest.(check bool) "full requested" true (E.scale_of_env () = E.Paper)

exception Probe_failure of string

let test_parjobs_exception_backtrace () =
  (* Regression: a worker-domain exception used to be re-raised at the join
     point with a bare [raise], which resets the backtrace — the original
     raise site was lost.  Backtrace recording is per-domain in OCaml 5, so
     the worker enables it before raising. *)
  Printexc.record_backtrace true;
  let f x =
    Printexc.record_backtrace true;
    if x = 2 then raise (Probe_failure "boom") else x
  in
  match Ccdsm_harness.Parjobs.map ~jobs:2 f [ 0; 1; 2; 3 ] with
  | _ -> Alcotest.fail "expected Probe_failure"
  | exception Probe_failure msg ->
      let bt = Printexc.get_raw_backtrace () in
      check Alcotest.string "exception intact" "boom" msg;
      Alcotest.(check bool) "worker raise site preserved in backtrace" true
        (let s = Printexc.raw_backtrace_to_string bt in
         let sub = "test_harness" in
         let n = String.length sub and m = String.length s in
         let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
         go 0)

let test_parjobs_map_order () =
  (* Results join in input order at any job count. *)
  let xs = List.init 20 (fun i -> i) in
  check
    Alcotest.(list int)
    "ordered" (List.map succ xs)
    (Ccdsm_harness.Parjobs.map ~jobs:4 succ xs)

let test_parjobs_caller_computes () =
  (* [~jobs:2] is two computing domains, the caller and one helper.  Each
     call holds its domain until both calls are in flight (or a few seconds
     pass), so neither domain can take both inputs. *)
  let in_flight = Atomic.make 0 in
  let f _ =
    Atomic.incr in_flight;
    let deadline = Unix.gettimeofday () +. 5. in
    while Atomic.get in_flight < 2 && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    Domain.self ()
  in
  let me = Domain.self () in
  match Ccdsm_harness.Parjobs.map ~jobs:2 f [ 0; 1 ] with
  | [ a; b ] ->
      Alcotest.(check int) "one call on the calling domain" 1
        (List.length (List.filter (fun d -> d = me) [ a; b ]));
      Alcotest.(check bool) "the other on a second domain" true (a <> b)
  | _ -> Alcotest.fail "two results expected"

let test_render_figure () =
  let m = Measure.measure ~num_nodes:4 (water_version Runtime.Stache 32) in
  let fig =
    { E.id = "figX"; title = "test"; rows = [ m; { m with Measure.label = "w" } ]; notes = [ "n" ] }
  in
  let s = E.render fig in
  Alcotest.(check bool) "renders bars and table" true
    (String.length s > 100 && String.index_opt s '|' <> None);
  Alcotest.(check bool) "includes notes" true
    (let sub = "expected shape" in
     let n = String.length sub and len = String.length s in
     let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
     go 0)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let test_trace_summary_histograms () =
  (* The per-kind table prices messages through Network.msg_cost and
     reports histogram quantiles on shared edges. *)
  let path = Filename.temp_file "ccdsm-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        {|{"type":"msg","kind":"data","bytes":32}
{"type":"msg","kind":"data","bytes":32}
{"type":"msg","kind":"req","bytes":16}
|};
      close_out oc;
      match Ccdsm_harness.Trace_summary.summarize_file path with
      | Error msg -> Alcotest.fail msg
      | Ok s ->
          Alcotest.(check bool) "histogram columns" true
            (contains s "B p50" && contains s "us p95");
          (* 2 data msgs at 32B: total cost = 2 * msg_cost(32B). *)
          let cost = Network.msg_cost Network.default ~bytes:32 in
          Alcotest.(check bool) "priced total" true
            (contains s (Printf.sprintf "%.0f" (2.0 *. cost))))

(* Every spec field and the environment's fault plan are in the memo's key:
   whatever the memo has seen before, a cell measured through it equals a
   direct measurement of the same version in every field but the label.
   Each field change must also change the measurement, or a key without
   that field would pass unnoticed. *)
let test_cell_memo_key () =
  let direct (s : Cell.spec) =
    Measure.measure ~num_nodes:s.Cell.nodes
      (Measure.version ~label:"" ~protocol:s.Cell.protocol ~block_bytes:s.Cell.block_bytes
         ~net:s.Cell.net ~coalesce:s.Cell.coalesce ~conflict_action:s.Cell.conflict_action
         (Cell.run s.Cell.variant s.Cell.scale))
  in
  let base = Cell.spec ~nodes:8 ~protocol:Runtime.Predictive ~block_bytes:64 E.Scaled Cell.Adaptive in
  let base_m = direct base in
  List.iter
    (fun (field, (s : Cell.spec)) ->
      let m = Cell.measure ~label:field s in
      check Alcotest.string (field ^ ": caller's label") field m.Measure.label;
      let d = direct s in
      Alcotest.(check bool) (field ^ ": memo = direct") true ({ m with Measure.label = "" } = d);
      if s <> base then Alcotest.(check bool) (field ^ " changes the cell") true (d <> base_m))
    [
      ("base", base);
      ("variant", { base with Cell.variant = Cell.Adaptive_flush });
      ("nodes", { base with Cell.nodes = 4 });
      ("protocol", { base with Cell.protocol = Runtime.Stache });
      ("block", { base with Cell.block_bytes = 32 });
      ("network", { base with Cell.net = Network.hardware_dsm });
      ("coalescing", { base with Cell.coalesce = false });
      ("conflict action", { base with Cell.conflict_action = `First_stable });
    ];
  (* fig5 clean, then under the plan test/cli pins: the second run must not
     be served the first one's cells. *)
  let fig5 plan =
    let saved = Sys.getenv_opt "CCDSM_FAULTS" in
    Unix.putenv "CCDSM_FAULTS" plan;
    Fun.protect
      ~finally:(fun () -> Unix.putenv "CCDSM_FAULTS" (Option.value saved ~default:""))
      (fun () -> E.render (E.fig5 ~num_nodes:8 E.Scaled) ^ "\n")
  in
  let clean = fig5 "" in
  let faulted = fig5 "drop=0.05,dup=0.02,delay=0.02,corrupt=0.05,seed=11" in
  check Alcotest.string "faulted fig5 = test/cli golden"
    (In_channel.with_open_bin "cli/fig5_faulted.expected" In_channel.input_all)
    faulted;
  Alcotest.(check bool) "faults change fig5" true (clean <> faulted)

let suite =
  [
    ( "harness.measure",
      [
        Alcotest.test_case "bucket consistency" `Quick test_measure_consistency;
        Alcotest.test_case "deterministic" `Quick test_measure_deterministic;
        Alcotest.test_case "protocol changes time not values" `Quick
          test_measure_protocol_changes_time_not_values;
        Alcotest.test_case "network override" `Quick test_measure_network_override;
        Alcotest.test_case "coalesce override" `Quick test_measure_coalesce_override;
        Alcotest.test_case "cell memo key holds every field" `Quick test_cell_memo_key;
      ] );
    ( "harness.parjobs",
      [
        Alcotest.test_case "worker exception keeps its backtrace" `Quick
          test_parjobs_exception_backtrace;
        Alcotest.test_case "join order" `Quick test_parjobs_map_order;
        Alcotest.test_case "the caller is one of the jobs" `Quick test_parjobs_caller_computes;
      ] );
    ( "harness.experiments",
      [
        Alcotest.test_case "table1" `Quick test_table1_contents;
        Alcotest.test_case "fig4 report" `Quick test_fig4_report;
        Alcotest.test_case "scale from env" `Quick test_scale_of_env;
        Alcotest.test_case "figure rendering" `Quick test_render_figure;
        Alcotest.test_case "trace summary histograms" `Quick test_trace_summary_histograms;
      ] );
  ]
