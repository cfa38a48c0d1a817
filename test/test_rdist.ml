(* Reuse-distance predictor suite: the Fenwick stack-distance collector
   differentially pinned against a brute-force LRU stack, profile
   byte-stability across step-job counts, the profile JSON golden, predict
   determinism, and the cross-validation harness's positive and negative
   pins (a perturbed model constant must fail — the oracle has teeth).

   To update the profile golden:
     CCDSM_UPDATE_GOLDEN=1 dune runtest
     cp _build/default/test/golden-new/*.profile.json test/golden/ *)

open Ccdsm_util
module Machine = Ccdsm_tempest.Machine
module Runtime = Ccdsm_runtime.Runtime
module Shared_heap = Ccdsm_runtime.Shared_heap
module Stack_dist = Ccdsm_rdist.Stack_dist
module Profile = Ccdsm_rdist.Profile
module Model = Ccdsm_rdist.Model
module PC = Ccdsm_harness.Predict_check

let check = Alcotest.check
let _ = ignore Ascii.table

(* -- Fenwick vs brute force ------------------------------------------------ *)

(* An op stream over a small key space so duplicates and re-references are
   common; one value is reserved as a phase reset. *)
let reset_marker = 25

let qcheck_fenwick =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~name:"stack distance: fenwick equals brute force"
       QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 reset_marker))
       (fun ops ->
         let fast = Stack_dist.create () in
         let slow = Stack_dist.Naive.create () in
         List.for_all
           (fun op ->
             if op = reset_marker then begin
               Stack_dist.reset fast;
               Stack_dist.Naive.reset slow;
               true
             end
             else
               Stack_dist.access fast op = Stack_dist.Naive.access slow op
               && Stack_dist.distinct fast = Stack_dist.Naive.distinct slow)
           ops))

(* A long deterministic trace (20k accesses over 300 keys) to push the
   Fenwick slot space through its in-place compaction, which short qcheck
   traces never reach. *)
let test_fenwick_compaction () =
  let fast = Stack_dist.create () in
  let slow = Stack_dist.Naive.create () in
  let state = ref 12345 in
  for i = 0 to 19_999 do
    state := ((!state * 1103515245) + 12721) land 0x3FFFFFFF;
    let k = !state mod 300 in
    if i mod 4096 = 4095 then begin
      Stack_dist.reset fast;
      Stack_dist.Naive.reset slow
    end
    else begin
      let df = Stack_dist.access fast k in
      let ds = Stack_dist.Naive.access slow k in
      if df <> ds then Alcotest.failf "access %d (key %d): fenwick %d, naive %d" i k df ds
    end
  done;
  check Alcotest.int "distinct" (Stack_dist.Naive.distinct slow) (Stack_dist.distinct fast)

(* -- profile stability ----------------------------------------------------- *)

let collect_jacobi ~step_jobs =
  let app = List.find (fun a -> a.PC.app_name = "jacobi") (PC.apps ()) in
  let cfg = Machine.default_config ~num_nodes:app.PC.app_nodes ~block_bytes:32 ~step_jobs () in
  let rt = Runtime.create ~cfg ~protocol:Runtime.Stache () in
  let profile, () =
    Profile.collect ~app:"jacobi" ~protocol:"stache"
      ~arena_blocks:(Shared_heap.arena_blocks (Runtime.heap rt))
      (Runtime.machine rt)
      (fun () -> app.PC.app_run rt)
  in
  profile

(* Parallel phase steps execute node-major in a deterministic order at any
   job count, so the collected profile — events, histograms, actuals — must
   be byte-identical at --jobs 1 and 4. *)
let test_profile_jobs_stable () =
  let p1 = Profile.to_json (collect_jacobi ~step_jobs:1) in
  let p4 = Profile.to_json (collect_jacobi ~step_jobs:4) in
  check Alcotest.(list string) "profile bytes, jobs 1 vs 4"
    (String.split_on_char '\n' p1) (String.split_on_char '\n' p4)

let test_profile_json_roundtrip () =
  let p = collect_jacobi ~step_jobs:1 in
  let json = Profile.to_json p in
  match Profile.of_json json with
  | Error msg -> Alcotest.failf "round-trip decode failed: %s" msg
  | Ok p' -> check Alcotest.string "re-encoded bytes" json (Profile.to_json p')

(* -- golden ---------------------------------------------------------------- *)

let update_golden = Sys.getenv_opt "CCDSM_UPDATE_GOLDEN" <> None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

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

let test_golden_profile () =
  check_golden "jacobi_stache.profile.json" (Profile.to_json (collect_jacobi ~step_jobs:1))

(* -- prediction determinism ------------------------------------------------ *)

let jacobi_app () = List.find (fun a -> a.PC.app_name = "jacobi") (PC.apps ())

let test_predict_deterministic () =
  let protocol = Model.Predictive { coalesce = true; conflict_action = `Ignore } in
  let profile = PC.collect_profile (jacobi_app ()) ~block_bytes:32 ~protocol in
  let net = Ccdsm_tempest.Network.default in
  let run () =
    List.map
      (fun block_bytes ->
        match Model.predict profile ~net ~block_bytes ~protocol with
        | Ok pred -> pred
        | Error msg -> Alcotest.failf "predict %dB: %s" block_bytes msg)
      [ 32; 64; 128; 256 ]
  in
  if run () <> run () then Alcotest.fail "two predict runs differ"

(* prepare + eval is the predictor's warm path (the serve grid); it must
   produce the same prediction as one-shot predict. *)
let test_prepare_eval_equals_predict () =
  let protocol = Model.Stache in
  let profile = PC.collect_profile (jacobi_app ()) ~block_bytes:32 ~protocol in
  let net = Ccdsm_tempest.Network.default in
  let pr =
    match Model.prepare profile ~net ~protocol with
    | Ok pr -> pr
    | Error msg -> Alcotest.failf "prepare: %s" msg
  in
  List.iter
    (fun block_bytes ->
      match (Model.eval pr ~block_bytes, Model.predict profile ~net ~block_bytes ~protocol) with
      | Ok a, Ok b -> if a <> b then Alcotest.failf "eval and predict disagree at %dB" block_bytes
      | Error msg, _ | _, Error msg -> Alcotest.failf "%dB: %s" block_bytes msg)
    [ 32; 128; 512 ]

let test_eval_rejects_bad_block () =
  let protocol = Model.Stache in
  let profile = PC.collect_profile (jacobi_app ()) ~block_bytes:32 ~protocol in
  let pr =
    match Model.prepare profile ~net:Ccdsm_tempest.Network.default ~protocol with
    | Ok pr -> pr
    | Error msg -> Alcotest.failf "prepare: %s" msg
  in
  (match Model.eval pr ~block_bytes:48 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "48B accepted");
  match Model.eval pr ~block_bytes:4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "4B accepted"

(* -- cross-validation pins ------------------------------------------------- *)

let test_validate_quick_passes () =
  let report = PC.validate ~quick:true () in
  if not report.PC.pass then Alcotest.failf "cross-validation failed:\n%s" report.PC.text;
  check Alcotest.int "cells" 12 (List.length report.PC.cells)

(* The negative test: a model deliberately corrupted by a constant fault
   offset must fail the bands — proof the oracle can reject. *)
let test_validate_perturbed_fails () =
  let report = PC.validate ~quick:true ~fudge_faults:10 () in
  if report.PC.pass then Alcotest.fail "perturbed model passed cross-validation (bands have no teeth)"

(* Same for the wall-clock side: shifting every segment's predicted
   remote-wait time by a constant must trip the bucket bands and the
   bit-for-bit base-block check. *)
let test_validate_wall_perturbed_fails () =
  let report = PC.validate ~quick:true ~fudge_wait_us:500.0 () in
  if report.PC.pass then
    Alcotest.fail "wait-perturbed model passed cross-validation (wall bands have no teeth)"

(* -- the model's transitions against real runs ------------------------------ *)

(* The model keeps its own block-granular tag/directory transitions (for
   speed; the prices come from the simulator's Cost table).  This pins them
   to real runs at the first segment that drifts: from one 32 B stache
   profile, every segment's predicted faults, presend grants and
   residual-corrected traffic at 8, 64 and 256 B must equal a profile of
   the real run at that block size, under stache and predictive alike. *)
let segment_mismatch (app : PC.app) =
  let base = PC.collect_profile app ~block_bytes:32 ~protocol:Model.Stache in
  let check_point protocol block_bytes pr =
    let label = Printf.sprintf "%s at %dB" (Model.protocol_label protocol) block_bytes in
    match Model.eval pr ~block_bytes with
    | Error msg -> Some (label ^ ": " ^ msg)
    | Ok pred ->
        let act = PC.collect_profile app ~block_bytes ~protocol in
        let row (s : Model.seg_pred) =
          ( s.Model.read_faults + s.Model.write_faults,
            s.Model.presends,
            s.Model.msgs_total,
            s.Model.bytes_total )
        and act_row (s : Profile.segment) =
          (s.Profile.a_faults, s.Profile.a_presends, s.Profile.a_msgs, s.Profile.a_bytes)
        in
        let pred_rows = Array.map row pred.Model.segs
        and act_rows = Array.map act_row act.Profile.segments in
        if Array.length pred_rows <> Array.length act_rows then
          Some
            (Printf.sprintf "%s: %d predicted segments vs %d actual" label (Array.length pred_rows)
               (Array.length act_rows))
        else
          let show (f, g, m, b) =
            Printf.sprintf "faults %d, grants %d, msgs %d, bytes %d" f g m b
          in
          let bad = ref None in
          Array.iteri
            (fun i r ->
              if !bad = None && r <> act_rows.(i) then
                bad :=
                  Some
                    (Printf.sprintf "%s, segment %d (%s): predicted %s, actual %s" label i
                       act.Profile.segments.(i).Profile.name (show r) (show act_rows.(i))))
            pred_rows;
          !bad
  in
  List.find_map
    (fun protocol ->
      match Model.prepare base ~net:Ccdsm_tempest.Network.default ~protocol with
      | Error msg -> Some ("prepare: " ^ msg)
      | Ok pr -> List.find_map (fun block -> check_point protocol block pr) [ 8; 64; 256 ])
    [ Model.Stache; Model.Predictive { coalesce = true; conflict_action = `Ignore } ]

let test_segments_match_jacobi () =
  match segment_mismatch (jacobi_app ()) with
  | None -> ()
  | Some msg -> Alcotest.fail msg

let qcheck_segments_match_programs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"model segments = real runs on random programs"
       Test_cstar_fuzz.gen_program (fun ast ->
         match Test_cstar_fuzz.compile_ast ast with
         | Error (printed, _) -> QCheck2.Test.fail_reportf "did not compile:@.%s" printed
         | Ok (printed, compiled) -> (
             let app =
               {
                 PC.app_name = "cstar";
                 app_nodes = 4;
                 app_run = (fun rt -> Ccdsm_cstar.Interp.run (Ccdsm_cstar.Interp.load rt compiled));
               }
             in
             match segment_mismatch app with
             | None -> true
             | Some msg -> QCheck2.Test.fail_reportf "%s@.%s" msg printed)))

let suite =
  [
    ( "rdist",
      [
        qcheck_fenwick;
        Alcotest.test_case "fenwick compaction vs brute force" `Quick test_fenwick_compaction;
        Alcotest.test_case "profile byte-stable at jobs 1 vs 4" `Quick test_profile_jobs_stable;
        Alcotest.test_case "profile JSON round-trip" `Quick test_profile_json_roundtrip;
        Alcotest.test_case "golden: jacobi stache profile" `Quick test_golden_profile;
        Alcotest.test_case "predict deterministic" `Quick test_predict_deterministic;
        Alcotest.test_case "prepare+eval = predict" `Quick test_prepare_eval_equals_predict;
        Alcotest.test_case "eval rejects bad block sizes" `Quick test_eval_rejects_bad_block;
        Alcotest.test_case "cross-validation quick grid passes" `Slow test_validate_quick_passes;
        Alcotest.test_case "perturbed model fails validation" `Slow test_validate_perturbed_fails;
        Alcotest.test_case "wait-perturbed model fails validation" `Slow
          test_validate_wall_perturbed_fails;
        Alcotest.test_case "model segments = real runs on jacobi" `Quick test_segments_match_jacobi;
        qcheck_segments_match_programs;
      ] );
  ]
