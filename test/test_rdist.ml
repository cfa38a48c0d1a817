(* First-touch replay predictor suite: profile byte-stability across
   step-job counts, the profile JSON golden, predict determinism, the
   model's per-segment agreement with real runs, and the cross-validation
   harness's positive and negative pins (a perturbed model constant must
   fail — the oracle has teeth).

   To update the profile golden:
     CCDSM_UPDATE_GOLDEN=1 dune runtest
     cp _build/default/test/golden-new/*.profile.json test/golden/ *)

module Machine = Ccdsm_tempest.Machine
module Runtime = Ccdsm_runtime.Runtime
module Shared_heap = Ccdsm_runtime.Shared_heap
module Profile = Ccdsm_rdist.Profile
module Model = Ccdsm_rdist.Model
module PC = Ccdsm_harness.Predict_check

let check = Alcotest.check

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
   job count, so the collected profile — events and actuals — must be
   byte-identical at --jobs 1 and 4. *)
let test_profile_jobs_stable () =
  let p1 = Profile.to_json (collect_jacobi ~step_jobs:1) in
  let p4 = Profile.to_json (collect_jacobi ~step_jobs:4) in
  check Alcotest.(list string) "profile bytes, jobs 1 vs 4"
    (String.split_on_char '\n' p1) (String.split_on_char '\n' p4)

(* Decoding re-encodes to the same bytes; the same document under any other
   version number is rejected, by name. *)
let test_profile_json_roundtrip () =
  let p = collect_jacobi ~step_jobs:1 in
  let json = Profile.to_json p in
  (match Profile.of_json json with
  | Error msg -> Alcotest.failf "round-trip decode failed: %s" msg
  | Ok p' -> check Alcotest.string "re-encoded bytes" json (Profile.to_json p'));
  let v3 = "{\"version\":3," in
  let n = String.length v3 in
  check Alcotest.string "encoded version" v3 (String.sub json 0 n);
  let v2 = "{\"version\":2," ^ String.sub json n (String.length json - n) in
  match Profile.of_json v2 with
  | Ok _ -> Alcotest.fail "version-2 profile accepted"
  | Error msg -> check Alcotest.string "version 2" "invalid profile: unsupported profile version 2" msg

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

(* On the validation apps as well as random programs: this is what makes
   Predict_check's exact per-segment fault check an invariant. *)
let test_segments_match_apps () =
  List.iter
    (fun (app : PC.app) ->
      match segment_mismatch app with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: %s" app.PC.app_name msg)
    (PC.apps ())

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

(* -- first-touch set -------------------------------------------------------- *)

(* Random (node, word, op) streams, one list per phase segment, through a
   profile collector on a bare machine whose fault handlers only grant the
   access.  Every segment has more distinct keys than the collector's
   first-touch set starts with (1024 slots), so the set grows inside
   segments, and keys repeat within and across segments.  Expanding the
   collected runs must give exactly each segment's first occurrences, in
   order: a key lost when the set grows comes back as a second occurrence,
   and one a reset lets through from the previous segment goes missing. *)
let ft_nodes = 4
let ft_words = 1024

let first_touch_streams seed =
  let st = Random.State.make [| seed |] in
  let keys =
    Array.init (ft_nodes * ft_words * 2) (fun k ->
        (k mod ft_nodes, k / ft_nodes mod ft_words, k >= ft_nodes * ft_words))
  in
  List.init
    (2 + Random.State.int st 3)
    (fun _ ->
      (* A fresh random sample of distinct keys, each followed now and then
         by a repeat of an earlier one. *)
      for i = Array.length keys - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let k = keys.(i) in
        keys.(i) <- keys.(j);
        keys.(j) <- k
      done;
      List.concat
        (List.init
           (1100 + Random.State.int st 900)
           (fun i ->
             if i > 0 && Random.State.int st 4 = 0 then [ keys.(i); keys.(Random.State.int st i) ]
             else [ keys.(i) ])))

let first_occurrences stream =
  let seen = Hashtbl.create 1024 in
  List.filter
    (fun key ->
      let fresh = not (Hashtbl.mem seen key) in
      Hashtbl.replace seen key ();
      fresh)
    stream

let collect_streams segs =
  let m = Machine.create (Machine.default_config ~num_nodes:ft_nodes ~block_bytes:32 ()) in
  let grant ~node b = Machine.set_tag m ~node b Ccdsm_tempest.Tag.Read_write in
  Machine.install m { Machine.on_read_fault = grant; on_write_fault = grant };
  let base = Machine.alloc m ~words:ft_words ~home:0 in
  let profile, () =
    Profile.collect ~app:"stream" ~protocol:"none" ~arena_blocks:1 m (fun () ->
        List.iteri
          (fun id seg ->
            Machine.notify_phase m ~enter:true ~id ~name:"seg" ~scheduled:false;
            List.iter
              (fun (node, word, write) ->
                if write then Machine.write m ~node (base + word) 0.0
                else ignore (Machine.read m ~node (base + word)))
              seg;
            Machine.notify_phase m ~enter:false ~id ~name:"seg" ~scheduled:false)
          segs)
  in
  Array.map
    (fun (s : Profile.segment) ->
      List.concat_map
        (function
          | Profile.Run { node; write; addr; stride; count } ->
              List.init count (fun k -> (node, addr + (k * stride) - base, write))
          | Profile.Alloc _ | Profile.Heap_alloc _ | Profile.Flush _ -> [])
        (Array.to_list s.Profile.events))
    profile.Profile.segments

let qcheck_first_touch_set =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"collected runs = each segment's first touches"
       ~print:string_of_int QCheck2.Gen.int (fun seed ->
         let segs = first_touch_streams seed in
         let got = collect_streams segs in
         let want = List.map first_occurrences segs in
         if Array.length got <> List.length want then
           QCheck2.Test.fail_reportf "%d segments collected, %d run" (Array.length got)
             (List.length want);
         List.iteri
           (fun i w ->
             if got.(i) <> w then
               QCheck2.Test.fail_reportf "segment %d: %d first touches collected, %d expected" i
                 (List.length got.(i)) (List.length w))
           want;
         true))

let suite =
  [
    ( "rdist",
      [
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
        Alcotest.test_case "model segments = real runs on the validation apps" `Slow
          test_segments_match_apps;
        qcheck_segments_match_programs;
        qcheck_first_touch_set;
      ] );
  ]
