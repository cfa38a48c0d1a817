(* Tests of the benchmark's own logic: the percentile rule, seeded traffic,
   and the expected-value check that feeds the failure count. *)

open Perfbench

let test_percentile_rule () =
  let check n want = Alcotest.(check (option (float 0.0))) (Printf.sprintf "n=%d" n) want (Stats.tail_percentile n) in
  check 19 None;
  check 20 (Some 50.0);
  check 49 (Some 75.0);
  check 50 (Some 80.0);
  check 199 (Some 90.0);
  check 200 (Some 95.0);
  check 1000 (Some 99.0);
  (* The rule as the serve workload applies it to its sample sizes. *)
  let cold = Load.traced_reps * 14 in
  Alcotest.(check bool) "one repetition's 14 cold samples do not carry p80" false (Stats.supports ~n:14 80.0);
  Alcotest.(check bool) "pooled cold samples carry p80" true (Stats.supports ~n:cold 80.0);
  Alcotest.(check bool) "pooled cold samples do not carry p90" false (Stats.supports ~n:cold 90.0);
  Alcotest.(check bool) "550 warm samples carry p95" true (Stats.supports ~n:550 95.0);
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "nearest-rank p80" 80.0 (Stats.percentile 80.0 xs);
  Alcotest.(check (float 0.0)) "median" 50.5 (Stats.median xs);
  (* Each unit at its best over the repetitions, then summed. *)
  Alcotest.(check (float 1e-12)) "best total" 3.5 (Stats.best_total [ [ 1.0; 3.0; 0.5 ]; [ 2.0; 2.0; 0.7 ] ])

let test_traffic_seeded () =
  let lines l = List.map (fun r -> r.Traffic.line) l in
  let a = Traffic.generate ~seed:7 and b = Traffic.generate ~seed:7 and c = Traffic.generate ~seed:8 in
  Alcotest.(check (list string)) "same seed, same traffic" (lines a) (lines b);
  Alcotest.(check string) "same digest" (Traffic.digest a) (Traffic.digest b);
  Alcotest.(check bool) "another seed, other traffic" true (Traffic.digest a <> Traffic.digest c);
  (* Every seed costs the daemon the same work: the same request count and
     the same set of distinct cold specs. *)
  let cold l =
    List.filter (fun r -> r.Traffic.cold) l
    |> List.map (fun r -> (r.Traffic.app, r.Traffic.protocol, r.Traffic.block, r.Traffic.kind = Traffic.Predict))
    |> List.sort compare
  in
  Alcotest.(check int) "request count" (List.length a) (List.length c);
  Alcotest.(check bool) "same cold set" true (cold a = cold c);
  Alcotest.(check int) "cold requests" 14 (List.length (cold a));
  Alcotest.(check int) "cold specs are distinct" 14 (List.length (List.sort_uniq compare (cold a)))

let expected_table () = match Expected.load "../expected.tsv" with Ok t -> t | Error msg -> Alcotest.fail msg

(* A real serve sim result, rendered as the daemon renders it, checked
   against the committed table passes; against a table whose digest was
   perturbed it is reported failed. *)
let test_perturbed_digest () =
  let table = expected_table () in
  let races, run = Grid.app_run "water" in
  let report =
    Ccdsm_harness.Proto_diff.run ~protocols:[ Ccdsm_runtime.Runtime.Stache ] ~nodes:Grid.serve_nodes
      ~block_bytes:1024 ~check_races:races ~app:"Water" ~run ()
  in
  let req =
    { Traffic.id = 1; line = Traffic.sim_line ~id:1 ~app:"water" ~protocol:"stache" ~block:1024; kind = Traffic.Sim;
      cold = true; app = "water"; protocol = "stache"; block = 1024 }
  in
  let line =
    Printf.sprintf "{\"id\":1,\"status\":\"ok\",\"cache\":\"miss\",\"key\":\"k\",\"result\":%s}"
      (Ccdsm_serve.Runner.result_json report)
  in
  let failures table =
    let checks = Checks.create () in
    ignore (Load.check_answer checks table { Load.req; line; sent = 0.0; recv = 0.0 });
    checks.Checks.failed
  in
  Alcotest.(check int) "committed table: no failures" 0 (failures table);
  let perturbed = Hashtbl.copy table in
  let k = Expected.key "water" ~nodes:Grid.serve_nodes ~block:1024 in
  let e = Hashtbl.find perturbed k in
  Hashtbl.replace perturbed k { e with Expected.digest = Option.map (Int64.logxor 1L) e.Expected.digest };
  Alcotest.(check int) "perturbed digest: reported failed" 1 (failures perturbed)

let test_table_round_trip () =
  let table = expected_table () in
  match Expected.of_string (Expected.to_string table) with
  | Ok t -> Alcotest.(check string) "same text" (Expected.to_string table) (Expected.to_string t)
  | Error msg -> Alcotest.fail msg

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "traffic is a function of the seed" `Quick test_traffic_seeded;
          Alcotest.test_case "perturbed expected digest fails" `Quick test_perturbed_digest;
          Alcotest.test_case "expected table round-trips" `Quick test_table_round_trip;
        ] );
    ]
