(* Tests for the causal latency-attribution layer: span timelines, per-phase
   critical paths, the exactness residual check, serialization round-trips
   and the Chrome trace-event export.

   Two contracts anchor everything here (see lib/obs/timeline.mli):
   - causality: a span's parent ends before (or exactly when) the span
     starts — [parent.t0 + parent.dur <= child.t0] for every edge;
   - exactness: the collector replays the machine's float additions in the
     machine's order, so per-node bucket totals agree bit-for-bit
     ([Timecap.check] returns []).

   The golden Chrome export pins the byte format; regenerate with

     CCDSM_UPDATE_GOLDEN=1 dune runtest

   and copy _build/default/test/golden-new/*.chrome.json back to
   test/golden/. *)

module Machine = Ccdsm_tempest.Machine
module Timecap = Ccdsm_tempest.Timecap
module Engine = Ccdsm_proto.Engine
module Timeline = Ccdsm_obs.Timeline
module Runtime = Ccdsm_runtime.Runtime
module L = Ccdsm_harness.Latency
module PC = Ccdsm_harness.Predict_check

let check = Alcotest.check

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* -- golden plumbing (the test_trace.ml convention) ------------------------ *)

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

(* -- contract checkers ----------------------------------------------------- *)

(* Spans whose parent ends after the child starts: must be none, exactly
   (edges are happens-before by construction, no epsilon). *)
let causality_violations tl =
  let arr = Array.of_list (Timeline.spans tl) in
  Array.to_list arr
  |> List.filter (fun (s : Timeline.span) ->
         s.Timeline.parent >= 0
         &&
         let p = arr.(s.Timeline.parent) in
         p.Timeline.t0 +. p.Timeline.dur > s.Timeline.t0)

(* A segment's critical path cannot exceed its wall clock: the closing
   barrier releases at (or after) every node's arrival.  The path length is
   a per-bucket float sum while the wall is a clock difference, so allow a
   relative ulp-scale slack. *)
let crit_violations tl =
  Timeline.critical_paths tl
  |> List.filter (fun (c : Timeline.crit) ->
         let s = c.Timeline.c_seg in
         let wall = s.Timeline.s_t1 -. s.Timeline.s_t0 in
         c.Timeline.c_len > wall +. (1e-9 *. Float.max 1.0 wall))

let roundtrip_or_fail tl =
  let j = Timeline.to_jsonl tl in
  match Timeline.of_jsonl j with
  | Error e -> Alcotest.failf "JSONL round-trip parse failed: %s" e
  | Ok t2 ->
      check Alcotest.int "round-trip span count" (Timeline.nspans tl) (Timeline.nspans t2);
      Alcotest.(check bool) "JSONL round-trip byte-identical" true (Timeline.to_jsonl t2 = j)

(* -- hand-built timelines -------------------------------------------------- *)

let tiny_timeline () =
  let t =
    Timeline.create ~nodes:2 ~buckets:[| "compute"; "synch" |] ~kinds:[| "req"; "data" |]
  in
  let root = Timeline.span t ~track:0 ~cat:"fault" ~name:"rd b3" ~t0:0.0 ~dur:2.0 () in
  let _leg =
    Timeline.span t ~track:0 ~cat:"msg" ~name:"req" ~t0:2.0 ~dur:3.0 ~parent:root ~flow_dst:1 ()
  in
  Timeline.add_charge t ~node:0 ~bucket:0 ~us:10.0;
  Timeline.add_charge t ~node:1 ~bucket:0 ~us:4.0;
  Timeline.add_kind_cost t ~node:0 ~kind:1 ~cost:3.0;
  Timeline.add_fill t ~node:1 ~bucket:1 ~us:6.0;
  Timeline.seal t ~label:"p0/synch" ~t1:12.0;
  t

let test_unit_segments_and_crit () =
  let t = tiny_timeline () in
  check Alcotest.int "nspans" 2 (Timeline.nspans t);
  (match Timeline.segments t with
  | [ s ] ->
      check Alcotest.string "label" "p0/synch" s.Timeline.label;
      check (Alcotest.float 0.0) "segment start" 0.0 s.Timeline.s_t0;
      check (Alcotest.float 0.0) "segment end" 12.0 s.Timeline.s_t1;
      check (Alcotest.float 0.0) "node0 compute charge" 10.0 s.Timeline.node_bucket.(0);
      (* The barrier's skew charge lands in [fill], not [node_bucket] — the
         critical path must not see the barrier equalize node times. *)
      check (Alcotest.float 0.0) "fill row" 6.0 s.Timeline.fill.(1);
      check (Alcotest.float 0.0) "fill absent from node_bucket" 0.0 s.Timeline.node_bucket.(3)
  | segs -> Alcotest.failf "expected one segment, got %d" (List.length segs));
  (* ... but the fill still counts toward the per-node totals the residual
     check compares against the machine. *)
  check (Alcotest.float 0.0) "total includes fill" 6.0 (Timeline.total t ~node:1 ~bucket:1);
  match Timeline.critical_paths t with
  | [ c ] ->
      check Alcotest.int "crit node" 0 c.Timeline.c_node;
      check (Alcotest.float 0.0) "crit length" 10.0 c.Timeline.c_len;
      check (Alcotest.float 0.0) "crit bucket decomposition" 10.0 c.Timeline.c_bucket.(0);
      check (Alcotest.float 0.0) "crit kind share" 3.0 c.Timeline.c_kind.(1)
  | cs -> Alcotest.failf "expected one critical path, got %d" (List.length cs)

let test_unit_chrome () =
  let t = tiny_timeline () in
  let c = Timeline.to_chrome t in
  Alcotest.(check bool) "thread metadata" true
    (contains c "\"name\":\"node 0\"" && contains c "\"name\":\"machine\"");
  Alcotest.(check bool) "duration event" true (contains c "\"ph\":\"X\"");
  Alcotest.(check bool) "flow arrows" true
    (contains c "\"ph\":\"s\"" && contains c "\"ph\":\"f\"");
  check Alcotest.string "deterministic" c (Timeline.to_chrome t)

let test_unit_jsonl_roundtrip () =
  let t = tiny_timeline () in
  roundtrip_or_fail t;
  Alcotest.(check bool) "summary renders" true
    (contains (Timeline.summary t) "p0/synch");
  (* Names holding JSON-special bytes: a comma in a kind name, a tab in a
     span name. *)
  let odd = Timeline.create ~nodes:1 ~buckets:[| "compute" |] ~kinds:[| "a,b"; "c" |] in
  ignore (Timeline.span odd ~track:0 ~cat:"msg" ~name:"x\ty" ~t0:0.0 ~dur:1.0 ());
  roundtrip_or_fail odd;
  (match Timeline.of_jsonl (Timeline.to_jsonl odd) with
  | Ok t2 ->
      check Alcotest.(array string) "kind names" [| "a,b"; "c" |] (Timeline.kind_names t2);
      check Alcotest.(list string) "span name" [ "x\ty" ]
        (List.map (fun (s : Timeline.span) -> s.Timeline.name) (Timeline.spans t2))
  | Error e -> Alcotest.fail e);
  (* The committed golden (repro timeline --app jacobi -o) reloads and
     re-renders byte for byte. *)
  let golden = In_channel.with_open_bin "golden/jacobi.timeline.jsonl" In_channel.input_all in
  match Timeline.of_jsonl golden with
  | Ok t -> check Alcotest.string "golden re-renders" golden (Timeline.to_jsonl t)
  | Error e -> Alcotest.fail e

let test_load_errors () =
  (match Timeline.load "no-such-timeline.jsonl" with
  | Ok _ -> Alcotest.fail "missing file loaded"
  | Error _ -> ());
  let path = Filename.temp_file "ccdsm-tl" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Timeline.load path with
      | Ok _ -> Alcotest.fail "empty file loaded"
      | Error msg -> Alcotest.(check bool) "says empty" true (contains msg "empty"));
      let oc = open_out path in
      output_string oc "{\"type\":\"msg\",\"kind\":\"data\",\"bytes\":32}\n";
      close_out oc;
      match Timeline.load path with
      | Ok _ -> Alcotest.fail "non-timeline file loaded"
      | Error msg -> Alcotest.(check bool) "says not a timeline" true (contains msg "timeline"))

(* -- collector on real runs ------------------------------------------------ *)

let run_app ~app ~protocol ~block_bytes () =
  let a = List.find (fun a -> a.PC.app_name = app) (PC.apps ()) in
  let cfg = Machine.default_config ~num_nodes:a.PC.app_nodes ~block_bytes () in
  let rt = Runtime.create ~cfg ~protocol () in
  let cap = Timecap.attach (Runtime.machine rt) in
  a.PC.app_run rt;
  let tl = Timecap.finish cap in
  let res = Timecap.check cap in
  Timecap.detach cap;
  (tl, res)

let test_collector_exact () =
  List.iter
    (fun protocol ->
      let tl, res = run_app ~app:"jacobi" ~protocol ~block_bytes:32 () in
      Alcotest.(check bool)
        (Runtime.protocol_name protocol ^ ": residuals empty")
        true (res = []);
      Alcotest.(check bool) "has spans" true (Timeline.nspans tl > 0);
      Alcotest.(check bool) "has segments" true (Timeline.segments tl <> []))
    [ Runtime.Stache; Runtime.Predictive ]

let test_collector_causal () =
  List.iter
    (fun protocol ->
      let tl, _ = run_app ~app:"jacobi" ~protocol ~block_bytes:32 () in
      check Alcotest.int
        (Runtime.protocol_name protocol ^ ": no causality violations")
        0
        (List.length (causality_violations tl));
      check Alcotest.int
        (Runtime.protocol_name protocol ^ ": crit <= segment wall")
        0
        (List.length (crit_violations tl));
      roundtrip_or_fail tl)
    [ Runtime.Stache; Runtime.Predictive ]

(* Random machine programs: any interleaving of reads, writes and barriers
   must keep every contract — causal edges, bounded critical paths, exact
   residuals and a byte-stable serialization. *)
let test_qcheck_contracts =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:50
       ~name:"random programs keep causality, crit bound and exactness"
       QCheck2.Gen.(list_size (0 -- 60) (triple (0 -- 3) (0 -- 31) (0 -- 3)))
       (fun ops ->
         let m = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) in
         ignore (Engine.stache m);
         let a = Machine.alloc m ~words:8 ~home:0 in
         List.iter (fun h -> ignore (Machine.alloc m ~words:8 ~home:h)) [ 1; 2; 3 ];
         let cap = Timecap.attach m in
         List.iter
           (fun (node, i, op) ->
             match op with
             | 0 -> ignore (Machine.read m ~node (a + i))
             | 1 -> Machine.write m ~node (a + i) (float_of_int (i + 1) *. 0.5)
             | 2 -> Machine.barrier m ~bucket:Machine.Synch
             | _ -> ignore (Machine.read m ~node (a + i)))
           ops;
         Machine.barrier m ~bucket:Machine.Synch;
         let tl = Timecap.finish cap in
         let res = Timecap.check cap in
         Timecap.detach cap;
         if res <> [] then QCheck2.Test.fail_report "residuals nonempty (charge escaped)";
         if causality_violations tl <> [] then
           QCheck2.Test.fail_report "a parent ends after its child starts";
         if crit_violations tl <> [] then
           QCheck2.Test.fail_report "a critical path exceeds its segment wall";
         let j = Timeline.to_jsonl tl in
         (match Timeline.of_jsonl j with
         | Error e -> QCheck2.Test.fail_reportf "round-trip parse failed: %s" e
         | Ok t2 ->
             if Timeline.to_jsonl t2 <> j then
               QCheck2.Test.fail_report "round-trip not byte-identical");
         true))

(* The Chrome export of a jacobi/stache run is a pinned byte format. *)
let test_chrome_golden () =
  let tl, res = run_app ~app:"jacobi" ~protocol:Runtime.Stache ~block_bytes:32 () in
  Alcotest.(check bool) "exact" true (res = []);
  check_golden "jacobi_stache.chrome.json" (Timeline.to_chrome tl)

(* -- the fig. 8 grid driver ------------------------------------------------ *)

let test_grid_unknown_names () =
  (match L.grid ~apps:[ "no-such-app" ] () with
  | Ok _ -> Alcotest.fail "unknown app accepted"
  | Error msg -> Alcotest.(check bool) "lists available apps" true (contains msg "available"));
  match L.grid ~protocols:[ "dragon" ] () with
  | Ok _ -> Alcotest.fail "unknown protocol accepted"
  | Error msg -> Alcotest.(check bool) "lists available protocols" true (contains msg "available")

(* The paper's fig. 8 shape on the jacobi cell: the predictive protocol cuts
   remote-wait relative to stache, and presend time exists only under it. *)
let test_fig8_shape () =
  match L.grid ~apps:[ "jacobi" ] ~blocks:[ 32 ] () with
  | Error e -> Alcotest.fail e
  | Ok cells ->
      let checks = L.shape_checks cells in
      Alcotest.(check bool) "shape checks present" true (checks <> []);
      List.iter (fun (claim, ok) -> Alcotest.(check bool) claim true ok) checks;
      Alcotest.(check bool) "render includes the percentage table" true
        (contains (L.render cells) "relative to the first protocol")

let test_timeline_run_report () =
  match L.timeline_run ~app:"jacobi" ~protocol:"stache" ~block_bytes:32 with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "residuals empty" true (r.L.t_residuals = []);
      let rep = L.report r in
      Alcotest.(check bool) "reports exactness" true (contains rep "agree exactly");
      Alcotest.(check bool) "per-phase critical paths" true (contains rep "crit/wall")

let suite =
  [
    ( "timeline",
      [
        Alcotest.test_case "segments, fill and critical paths" `Quick
          test_unit_segments_and_crit;
        Alcotest.test_case "chrome export shape" `Quick test_unit_chrome;
        Alcotest.test_case "JSONL round-trip" `Quick test_unit_jsonl_roundtrip;
        Alcotest.test_case "load error messages" `Quick test_load_errors;
        Alcotest.test_case "collector exactness (jacobi)" `Quick test_collector_exact;
        Alcotest.test_case "collector causality + round-trip (jacobi)" `Quick
          test_collector_causal;
        test_qcheck_contracts;
        Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
        Alcotest.test_case "grid rejects unknown names" `Quick test_grid_unknown_names;
        Alcotest.test_case "fig. 8 shape on jacobi" `Slow test_fig8_shape;
        Alcotest.test_case "timeline_run report" `Quick test_timeline_run_report;
      ] );
  ]
