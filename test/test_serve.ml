(* The serving layer: the persistent work-stealing pool, job-spec parsing
   and content addressing, the inflight-deduplicating result cache, and the
   daemon end-to-end over a Unix socket — including the failure paths
   (timeout, queue-full rejection, malformed specs). *)

module Pool = Ccdsm_harness.Pool
module Parjobs = Ccdsm_harness.Parjobs
module Proto_diff = Ccdsm_harness.Proto_diff
module Runtime = Ccdsm_runtime.Runtime
module Aggregate = Ccdsm_runtime.Aggregate
module Distribution = Ccdsm_runtime.Distribution
module Fnv = Ccdsm_util.Fnv
module Job = Ccdsm_serve.Job
module Cache = Ccdsm_serve.Cache
module Runner = Ccdsm_serve.Runner
module Server = Ccdsm_serve.Server
module Machine = Ccdsm_tempest.Machine
module Network = Ccdsm_tempest.Network
module Shared_heap = Ccdsm_runtime.Shared_heap
module Profile = Ccdsm_rdist.Profile
module Model = Ccdsm_rdist.Model
module Json = Ccdsm_util.Json

let check = Alcotest.check

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* -- Pool ------------------------------------------------------------------ *)

let test_pool_map_order () =
  Pool.with_pool ~domains:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      check
        Alcotest.(list int)
        "input order preserved"
        (List.map (fun x -> x * x) xs)
        (Pool.map pool (fun x -> x * x) xs))

let test_pool_persistent_reuse () =
  (* One pool, many submission waves: the shared deque must keep serving
     after it has drained to empty (fan-out-and-join pools died here). *)
  Pool.with_pool ~domains:2 (fun pool ->
      for wave = 1 to 5 do
        let xs = List.init 40 (fun i -> (wave * 1000) + i) in
        check Alcotest.(list int) "wave results" (List.map succ xs) (Pool.map pool succ xs)
      done)

let test_pool_error_capture () =
  Pool.with_pool ~domains:2 (fun pool ->
      let t = Pool.submit pool (fun () -> failwith "boom") in
      (match Pool.await t with
      | Error (Failure msg, bt) ->
          check Alcotest.string "exn preserved" "boom" msg;
          ignore (Printexc.raw_backtrace_to_string bt)
      | Error _ -> Alcotest.fail "wrong exception"
      | Ok () -> Alcotest.fail "must fail");
      (* [map] re-raises the first error by INPUT order, not completion
         order. *)
      match Pool.map pool (fun x -> if x >= 2 then failwith (string_of_int x) else x) [ 1; 2; 3 ] with
      | exception Failure msg -> check Alcotest.string "first by input order" "2" msg
      | _ -> Alcotest.fail "map must re-raise")

let test_pool_shutdown () =
  let pool = Pool.create ~domains:2 () in
  let tickets = List.init 20 (fun i -> Pool.submit pool (fun () -> i * 3)) in
  Pool.shutdown pool;
  (* Shutdown drains: every queued job still ran. *)
  List.iteri
    (fun i t -> check Alcotest.int "drained result" (i * 3) (Pool.await_exn t))
    tickets;
  Pool.shutdown pool;
  (* Idempotent; and late submissions are refused loudly. *)
  match Pool.submit pool (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "submit after shutdown must raise"

let test_parjobs_validation () =
  let cap = Parjobs.max_jobs () in
  check Alcotest.int "identity below cap" 1 (Parjobs.validate_jobs ~what:"t" 1);
  check Alcotest.int "cap itself is fine" cap (Parjobs.validate_jobs ~what:"t" cap);
  (match Parjobs.validate_jobs ~what:"--jobs" (cap + 1) with
  | exception Invalid_argument msg ->
      check Alcotest.bool "names the flag" true (contains msg "--jobs")
  | _ -> Alcotest.fail "above cap must raise");
  match Parjobs.validate_jobs ~what:"t" 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero must raise"

(* -- Fnv ------------------------------------------------------------------- *)

let test_fnv_vectors () =
  (* Published FNV-1a-64 test vectors. *)
  check Alcotest.string "empty" "cbf29ce484222325" (Fnv.to_hex (Fnv.digest_string ""));
  check Alcotest.string "a" "af63dc4c8601ec8c" (Fnv.to_hex (Fnv.digest_string "a"));
  check Alcotest.string "foobar" "85944171f73967e8" (Fnv.to_hex (Fnv.digest_string "foobar"))

(* -- Job specs ------------------------------------------------------------- *)

let test_job_parse_defaults () =
  (match Job.parse {|{"app":"water","protocol":"stache"}|} with
  | Error msg -> Alcotest.fail msg
  | Ok { id; spec } ->
      check Alcotest.bool "no id" true (id = None);
      check Alcotest.string "app" "water" spec.Job.app;
      check Alcotest.int "nodes default" 8 spec.Job.nodes;
      check Alcotest.int "block default" 32 spec.Job.block_bytes;
      check Alcotest.int "step_jobs default" 1 spec.Job.step_jobs;
      check Alcotest.bool "no faults" true (spec.Job.faults = None);
      check Alcotest.bool "scaled" true (spec.Job.scale = `Scaled));
  (* A \u escape in the id parses, and the echoed id is a JSON literal that
     parses again to the same string; an integral float is an integer. *)
  match Job.parse {|{"app":"water","protocol":"stache","id":"a\u0001b","nodes":8.0}|} with
  | Error msg -> Alcotest.fail msg
  | Ok { id = None; _ } -> Alcotest.fail "id lost"
  | Ok { id = Some lit; spec } -> (
      check Alcotest.int "8.0 is 8" 8 spec.Job.nodes;
      check Alcotest.bool "echo decodes" true
        (Ccdsm_util.Json.parse lit = Ok (Ccdsm_util.Json.String "a\001b"));
      match Job.parse (Printf.sprintf {|{"app":"water","protocol":"stache","id":%s}|} lit) with
      | Ok r -> check Alcotest.(option string) "echo parses again" (Some lit) r.id
      | Error msg -> Alcotest.fail msg)

let test_job_canonical_stable () =
  (* Key order, whitespace, id and app case must not change the content
     address; a changed parameter must. *)
  let k spec_line =
    match Job.parse spec_line with
    | Ok { spec; _ } -> Job.key spec
    | Error msg -> Alcotest.fail msg
  in
  let a = k {|{"app":"Water","protocol":"stache","nodes":8}|} in
  let b = k {|{ "nodes": 8, "id": 42, "protocol": "stache", "app": "water" }|} in
  check Alcotest.string "spelling-invariant" a b;
  let c = k {|{"app":"water","protocol":"stache","nodes":16}|} in
  check Alcotest.bool "parameter-sensitive" true (a <> c)

let test_job_parse_rejects () =
  let reject what line needle =
    match Job.parse line with
    | Ok _ -> Alcotest.fail (what ^ ": must reject")
    | Error msg -> check Alcotest.bool (what ^ ": message") true (contains msg needle)
  in
  reject "missing app" {|{"protocol":"stache"}|} "app";
  reject "unknown key" {|{"app":"w","protocol":"s","bogus":1}|} "unknown key";
  reject "duplicate key" {|{"app":"w","app":"w","protocol":"s"}|} "duplicate";
  reject "nested" {|{"app":"w","protocol":"s","faults":{}}|} "nested";
  reject "block not pow2" {|{"app":"w","protocol":"s","block_bytes":33}|} "power of two";
  reject "nodes range" {|{"app":"w","protocol":"s","nodes":4096}|} "nodes";
  reject "bad faults" {|{"app":"w","protocol":"s","faults":"drop=oops"}|} "faults";
  reject "bad scale" {|{"app":"w","protocol":"s","scale":"huge"}|} "scale";
  reject "step_jobs cap" {|{"app":"w","protocol":"s","step_jobs":1000000}|} "step_jobs";
  reject "garbage" {|{"app":"w","protocol":"s"} trailing|} "trailing";
  reject "not json" {|water stache|} "expected"

let test_job_parse_timeline () =
  (match Job.parse {|{"kind":"timeline","id":9}|} with
  | Ok { id; spec } ->
      check Alcotest.bool "id echoed" true (id = Some "9");
      check Alcotest.bool "timeline kind" true (spec.Job.kind = `Timeline)
  | Error msg -> Alcotest.fail msg);
  (* A timeline job is a state query: simulation parameters on it are a
     client bug, rejected rather than ignored. *)
  match Job.parse {|{"kind":"timeline","app":"water"}|} with
  | Ok _ -> Alcotest.fail "timeline + app must be rejected"
  | Error msg -> check Alcotest.bool "names the stray key" true (contains msg "app")

(* -- Cache ----------------------------------------------------------------- *)

let test_cache_compute_then_hit () =
  let c = Cache.create () in
  let delivered = ref [] in
  let deliver v = delivered := v :: !delivered in
  (match Cache.lookup c ~key:"k" ~deliver () with
  | Cache.Compute finish ->
      (* A concurrent identical request joins instead of recomputing... *)
      (match Cache.lookup c ~key:"k" ~deliver () with
      | Cache.Joined -> ()
      | _ -> Alcotest.fail "second lookup must join");
      check Alcotest.int "inflight" 1 (Cache.inflight c);
      check Alcotest.bool "finish accepted" true (finish 41)
  | _ -> Alcotest.fail "first lookup must compute");
  (* ...and is delivered when the computation finishes. *)
  check Alcotest.(list int) "joiner and owner delivered" [ 41; 41 ] !delivered;
  (match Cache.lookup c ~key:"k" ~deliver () with
  | Cache.Hit v -> check Alcotest.int "hit value" 41 v
  | _ -> Alcotest.fail "third lookup must hit");
  check Alcotest.int "one done entry" 1 (Cache.entries c);
  check Alcotest.int "nothing inflight" 0 (Cache.inflight c)

let test_cache_admit_rejection () =
  let c = Cache.create () in
  (match Cache.lookup c ~key:"k" ~admit:(fun () -> false) ~deliver:ignore () with
  | Cache.Rejected -> ()
  | _ -> Alcotest.fail "admit=false must reject");
  check Alcotest.int "no dangling inflight entry" 0 (Cache.entries c);
  match Cache.lookup c ~key:"k" ~deliver:ignore () with
  | Cache.Compute _ -> ()
  | _ -> Alcotest.fail "a later admitted request must compute"

let test_cache_cancel () =
  let c = Cache.create () in
  let delivered = ref [] in
  let deliver v = delivered := v :: !delivered in
  match Cache.lookup c ~key:"k" ~deliver () with
  | Cache.Compute finish ->
      check Alcotest.bool "cancel inflight" true (Cache.cancel c ~key:"k" (-1));
      check Alcotest.(list int) "waiter got the cancel value" [ -1 ] !delivered;
      (* The late result is discarded and the entry is gone: a retry
         recomputes rather than being served the cancellation. *)
      check Alcotest.bool "late finish refused" false (finish 7);
      check Alcotest.int "entry removed" 0 (Cache.entries c);
      (match Cache.lookup c ~key:"k" ~deliver () with
      | Cache.Compute _ -> ()
      | _ -> Alcotest.fail "retry must recompute");
      check Alcotest.bool "cancel on fresh inflight only" false (Cache.cancel c ~key:"zzz" 0)
  | _ -> Alcotest.fail "must compute"

(* -- Runner ---------------------------------------------------------------- *)

(* A tiny jacobi stencil as the injected app table: the e2e tests must not
   pay for the real benchmark apps. *)
let tiny_app rt =
  let m = Runtime.machine rt in
  let n = 16 in
  let u = Aggregate.create_1d m ~name:"u" ~n ~dist:Distribution.Block1d () in
  let v = Aggregate.create_1d m ~name:"v" ~n ~dist:Distribution.Block1d () in
  for i = 0 to n - 1 do
    Aggregate.poke1 u i ~field:0 (float_of_int ((i * 7) mod 11))
  done;
  let smooth = Runtime.make_phase rt ~name:"smooth" ~scheduled:true in
  for _iter = 1 to 2 do
    Runtime.parallel_for_1d rt ~phase:smooth u (fun ~node ~i ->
        let at j = Aggregate.read1 u ~node j ~field:0 in
        let left = if i = 0 then 0.0 else at (i - 1) in
        let right = if i = n - 1 then 0.0 else at (i + 1) in
        Aggregate.write1 v ~node i ~field:0 ((left +. at i +. right) /. 3.0))
  done;
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. Aggregate.peek1 v i ~field:0
  done;
  !s

let tiny_apps = [ ("tiny", true, tiny_app) ]

let parse_ok line =
  match Job.parse line with Ok r -> r | Error msg -> Alcotest.fail msg

let test_runner_unknown_names () =
  let { Job.spec; _ } = parse_ok {|{"app":"nope","protocol":"stache"}|} in
  (match Runner.prepare ~apps:tiny_apps spec with
  | Error msg -> check Alcotest.bool "lists apps" true (contains msg "tiny")
  | Ok _ -> Alcotest.fail "unknown app must fail");
  let { Job.spec; _ } = parse_ok {|{"app":"tiny","protocol":"dragon"}|} in
  match Runner.prepare ~apps:tiny_apps spec with
  | Error msg ->
      (* Mirrors the CLI's exit-124 message: the registry's name list. *)
      check Alcotest.bool "lists protocols" true (contains msg "predictive")
  | Ok _ -> Alcotest.fail "unknown protocol must fail"

let test_runner_matches_direct_run () =
  let { Job.spec; _ } =
    parse_ok {|{"app":"tiny","protocol":"stache","nodes":4,"block_bytes":32}|}
  in
  let served =
    match Runner.prepare ~apps:tiny_apps spec with
    | Ok p -> Runner.execute p
    | Error msg -> Alcotest.fail msg
  in
  let direct =
    Runner.result_json
      (Proto_diff.run ~protocols:[ Runtime.Stache ] ~nodes:4 ~block_bytes:32 ~app:"tiny"
         ~run:tiny_app ())
  in
  check Alcotest.string "byte-identical to a direct harness run" direct served

(* The served predict path at every block size [Job] admits, on the 4-node
   jacobi of the predictor's validation set (its predictive replays grant
   presends): each answer equals the model evaluated on a profile collected
   the way the runner collects one (stache, 32-byte blocks), and the
   fourteen jobs share that one profile. *)
let test_runner_predict_matches_model () =
  let jacobi =
    List.find
      (fun a -> a.Ccdsm_harness.Predict_check.app_name = "jacobi")
      (Ccdsm_harness.Predict_check.apps ())
  in
  let run rt =
    jacobi.Ccdsm_harness.Predict_check.app_run rt;
    0.0
  in
  let job block_bytes =
    Job.parse
      (Printf.sprintf
         {|{"kind":"predict","app":"jacobi","protocol":"predictive","nodes":4,"block_bytes":%d}|}
         block_bytes)
  in
  List.iter
    (fun b -> check Alcotest.bool (Printf.sprintf "%d B rejected" b) true (Result.is_error (job b)))
    [ 4; 131072 ];
  let before = Runner.profile_count () in
  let cfg = Machine.default_config ~num_nodes:4 ~block_bytes:32 () in
  let rt = Runtime.create ~cfg ~protocol:Runtime.Stache () in
  let profile, _ =
    Profile.collect ~app:"jacobi" ~protocol:"stache"
      ~arena_blocks:(Shared_heap.arena_blocks (Runtime.heap rt))
      (Runtime.machine rt)
      (fun () -> run rt)
  in
  let protocol = Model.Predictive { coalesce = true; conflict_action = `Ignore } in
  let pr =
    match Model.prepare profile ~net:Network.default ~protocol with
    | Ok pr -> pr
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun block_bytes ->
      let served =
        match
          Result.bind (job block_bytes) (fun r ->
              Runner.prepare ~apps:[ ("jacobi", true, run) ] r.Job.spec)
        with
        | Ok p -> Runner.execute p
        | Error msg -> Alcotest.fail msg
      in
      let want =
        match Model.eval pr ~block_bytes with Ok p -> p | Error msg -> Alcotest.fail msg
      in
      let field key =
        match Result.bind (Json.parse served) Json.(field key int) with
        | Ok v -> v
        | Error msg -> Alcotest.fail msg
      in
      let label key = Printf.sprintf "%s at %d B" key block_bytes in
      check Alcotest.int (label "faults") want.Model.faults (field "faults");
      check Alcotest.int (label "msgs") want.Model.msgs (field "msgs");
      check Alcotest.int (label "bytes") want.Model.bytes (field "bytes");
      check Alcotest.int (label "presends") want.Model.presends (field "presends"))
    (List.init 14 (fun i -> 8 lsl i));
  check Alcotest.int "one profile collected" (before + 1) (Runner.profile_count ())

(* -- Server end-to-end ----------------------------------------------------- *)

let with_server ?(domains = 2) ?(max_pending = 16) ?timeout_ms ?log ?(slow_ms = 0.0)
    ?(apps = tiny_apps) f =
  let path = Filename.temp_file "ccdsm-serve" ".sock" in
  Sys.remove path;
  let cfg =
    {
      Server.socket = `Unix path;
      http_port = None;
      domains;
      max_pending;
      timeout_ms;
      log;
      slow_ms;
      apps = Some apps;
    }
  in
  let srv = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv path)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let roundtrip path lines =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      flush oc;
      List.map (fun _ -> input_line ic) lines)

let result_part line =
  match String.index_opt line '{' with
  | Some _ -> (
      let marker = "\"result\":" in
      let n = String.length line and m = String.length marker in
      let rec find i =
        if i + m > n then None
        else if String.sub line i m = marker then Some (String.sub line (i + m) (n - i - m))
        else find (i + 1)
      in
      match find 0 with Some r -> r | None -> Alcotest.fail ("no result in: " ^ line))
  | None -> Alcotest.fail "not a response line"

let spec_line = {|{"app":"tiny","protocol":"stache","nodes":4}|}

let test_serve_miss_then_hit () =
  with_server (fun srv path ->
      let first = roundtrip path [ spec_line ] in
      let second = roundtrip path [ spec_line ] in
      (match (first, second) with
      | [ a ], [ b ] ->
          check Alcotest.bool "first is a miss" true (contains a "\"cache\":\"miss\"");
          check Alcotest.bool "second is a hit" true (contains b "\"cache\":\"hit\"");
          check Alcotest.string "results byte-identical" (result_part a) (result_part b)
      | _ -> Alcotest.fail "one response per spec");
      let m = Server.metrics_text srv in
      check Alcotest.bool "miss counted" true (contains m "ccdsm_serve_cache_total{kind=\"miss\"} 1");
      check Alcotest.bool "hit counted" true (contains m "ccdsm_serve_cache_total{kind=\"hit\"} 1"))

let test_serve_concurrent_dedup () =
  (* The same spec from 8 concurrent connections: computed once, every
     client answered, all results byte-identical. *)
  with_server (fun srv path ->
      let n = 8 in
      let results = Array.make n "" in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                match roundtrip path [ spec_line ] with
                | [ r ] -> results.(i) <- r
                | _ -> ())
              ())
      in
      List.iter Thread.join threads;
      Array.iter
        (fun r ->
          check Alcotest.bool "answered ok" true (contains r "\"status\":\"ok\"");
          check Alcotest.string "identical result" (result_part results.(0)) (result_part r))
        results;
      let m = Server.metrics_text srv in
      check Alcotest.bool "computed exactly once" true
        (contains m "ccdsm_serve_cache_total{kind=\"miss\"} 1"))

let test_serve_structured_errors () =
  with_server (fun _srv path ->
      match
        roundtrip path
          [
            "this is not json";
            {|{"app":"tiny","protocol":"dragon","id":7}|};
            {|{"app":"absent","protocol":"stache"}|};
            (* valid, but its id pads the line past the 64 KiB cap *)
            Printf.sprintf {|{"app":"tiny","protocol":"stache","nodes":4,"id":"%s"}|}
              (String.make 65536 'x');
            spec_line;
          ]
      with
      | [ bad_syntax; bad_proto; bad_app; too_long; good ] ->
          check Alcotest.bool "syntax error record" true
            (contains bad_syntax "\"status\":\"error\"");
          (* Unknown names come back as per-job records listing the
             available names — the daemon survives. *)
          check Alcotest.bool "protocol error lists names" true (contains bad_proto "predictive");
          check Alcotest.bool "protocol error echoes id" true (contains bad_proto "\"id\":7");
          check Alcotest.bool "app error lists apps" true (contains bad_app "tiny");
          check Alcotest.bool "over-long line is an error record" true
            (contains too_long "\"status\":\"error\"" && contains too_long "65536");
          check Alcotest.bool "daemon still serves" true (contains good "\"status\":\"ok\"")
      | _ -> Alcotest.fail "five responses expected")

let test_serve_timeout () =
  (* timeout 0: the deadline has always passed by the time a worker picks
     the job up, so the path is deterministic. *)
  with_server ~timeout_ms:0.0 (fun srv path ->
      (match roundtrip path [ spec_line ] with
      | [ r ] -> check Alcotest.bool "timed out" true (contains r "\"status\":\"timeout\"")
      | _ -> Alcotest.fail "one response expected");
      let m = Server.metrics_text srv in
      check Alcotest.bool "timeout counted" true
        (contains m "ccdsm_serve_requests_total{status=\"timeout\"} 1"))

let test_serve_queue_full () =
  (* max_pending 0: every submission bounces with the structured reason. *)
  with_server ~max_pending:0 (fun srv path ->
      (match roundtrip path [ spec_line ] with
      | [ r ] ->
          check Alcotest.bool "rejected" true (contains r "\"status\":\"rejected\"");
          check Alcotest.bool "reason names the bound" true (contains r "max_pending=0")
      | _ -> Alcotest.fail "one response expected");
      let m = Server.metrics_text srv in
      check Alcotest.bool "rejection counted" true
        (contains m "ccdsm_serve_requests_total{status=\"rejected\"} 1"))

let test_serve_latency_breakdown () =
  (* Every sim result carries the paper-bucket decomposition. *)
  with_server (fun _srv path ->
      match roundtrip path [ spec_line ] with
      | [ r ] ->
          check Alcotest.bool "latency object" true (contains r "\"latency\":{\"compute\":");
          check Alcotest.bool "all four buckets" true
            (contains r "\"presend\":" && contains r "\"remote_wait\":" && contains r "\"synch\":")
      | _ -> Alcotest.fail "one response expected")

let test_serve_slow_log_roundtrip () =
  (* --log + --slow-ms end-to-end: a sub-threshold threshold flags the miss
     as slow, the capture re-run parks a timeline in the ring, a
     {"kind":"timeline"} job retrieves it, and the JSONL log holds one
     record per answered request. *)
  let log = Filename.temp_file "ccdsm-serve" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with _ -> ())
    (fun () ->
      with_server ~log ~slow_ms:0.000001 (fun srv path ->
          (match roundtrip path [ spec_line ] with
          | [ r ] -> check Alcotest.bool "miss answered" true (contains r "\"status\":\"ok\"")
          | _ -> Alcotest.fail "one response expected");
          (* The capture re-run happens after the response is delivered;
             poll the ring until it lands. *)
          let deadline = Unix.gettimeofday () +. 10.0 in
          let rec poll () =
            match roundtrip path [ {|{"kind":"timeline","id":1}|} ] with
            | [ r ] when contains r "\"timeline\":" -> r
            | [ _ ] when Unix.gettimeofday () < deadline ->
                Thread.delay 0.05;
                poll ()
            | [ r ] -> Alcotest.fail ("slow job never reached the ring: " ^ r)
            | _ -> Alcotest.fail "one response expected"
          in
          let ring = poll () in
          check Alcotest.bool "entry is exact" true (contains ring "\"exact\":true");
          check Alcotest.bool "carries the canonical spec" true
            (contains ring "\"spec\":{\"app\":\"tiny\"");
          (* The embedded timeline round-trips through the parser. *)
          let tl_part =
            let marker = "\"timeline\":\"" in
            let n = String.length ring and m = String.length marker in
            let rec find i =
              if i + m > n then Alcotest.fail "no timeline field"
              else if String.sub ring i m = marker then i + m
              else find (i + 1)
            in
            let start = find 0 in
            let buf = Buffer.create 1024 in
            let rec scan i =
              match ring.[i] with
              | '"' -> Buffer.contents buf
              | '\\' ->
                  (match ring.[i + 1] with
                  | 'n' -> Buffer.add_char buf '\n'
                  | 't' -> Buffer.add_char buf '\t'
                  | c -> Buffer.add_char buf c);
                  scan (i + 2)
              | c ->
                  Buffer.add_char buf c;
                  scan (i + 1)
            in
            scan start
          in
          (match Ccdsm_obs.Timeline.of_jsonl tl_part with
          | Ok tl -> check Alcotest.bool "has spans" true (Ccdsm_obs.Timeline.nspans tl > 0)
          | Error msg -> Alcotest.fail ("embedded timeline does not parse: " ^ msg));
          let m = Server.metrics_text srv in
          check Alcotest.bool "slow job counted" true
            (contains m "ccdsm_serve_slow_jobs_total 1");
          Server.stop srv;
          (* One log record per answered request, flushed as written. *)
          let ic = open_in log in
          let rec lines acc =
            match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
          in
          let recs = lines [] in
          close_in ic;
          check Alcotest.bool "miss flagged slow" true
            (List.exists (fun l -> contains l "\"cache\":\"miss\"" && contains l "\"slow\":true") recs);
          check Alcotest.bool "timeline queries logged" true
            (List.exists (fun l -> contains l "\"cache\":\"timeline\"") recs);
          List.iter
            (fun l ->
              check Alcotest.bool "record shape" true
                (contains l "\"queue_wait_us\":" && contains l "\"run_us\":"
               && contains l "\"status\":"))
            recs))

let test_serve_slow_capture_failure () =
  (* The app succeeds on its first run (the job) and raises on its second
     (the slow-job capture re-run): the job is still answered, and the
     failure is counted and logged with the job key and the exception. *)
  let runs = Atomic.make 0 in
  let flaky rt = if Atomic.fetch_and_add runs 1 = 0 then tiny_app rt else failwith "capture boom" in
  let log = Filename.temp_file "ccdsm-serve" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with _ -> ())
    (fun () ->
      with_server ~log ~slow_ms:0.000001 ~apps:[ ("flaky", true, flaky) ] (fun srv path ->
          let key =
            match roundtrip path [ {|{"app":"flaky","protocol":"stache","nodes":4}|} ] with
            | [ r ] ->
                check Alcotest.bool "job answered" true (contains r "\"status\":\"ok\"");
                let marker = "\"key\":\"" in
                let rec find i =
                  if String.sub r i (String.length marker) = marker then i + String.length marker
                  else find (i + 1)
                in
                let start = find 0 in
                String.sub r start (String.index_from r start '"' - start)
            | _ -> Alcotest.fail "one response expected"
          in
          (* The capture runs after the answer is delivered; poll for it. *)
          let counted = "ccdsm_serve_slow_capture_failures_total 1" in
          let deadline = Unix.gettimeofday () +. 10.0 in
          while
            (not (contains (Server.metrics_text srv) counted)) && Unix.gettimeofday () < deadline
          do
            Thread.delay 0.02
          done;
          check Alcotest.bool "failure counted" true (contains (Server.metrics_text srv) counted);
          Server.stop srv;
          let ic = open_in log in
          let rec lines acc =
            match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
          in
          let recs = lines [] in
          close_in ic;
          check Alcotest.bool "failure logged with key and exception" true
            (List.exists
               (fun l ->
                 contains l "\"event\":\"slow_capture_failed\""
                 && contains l ("\"key\":\"" ^ key ^ "\"")
                 && contains l "capture boom")
               recs)))

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "pool map order" `Quick test_pool_map_order;
        Alcotest.test_case "pool persistent reuse" `Quick test_pool_persistent_reuse;
        Alcotest.test_case "pool error capture" `Quick test_pool_error_capture;
        Alcotest.test_case "pool shutdown" `Quick test_pool_shutdown;
        Alcotest.test_case "parjobs validation cap" `Quick test_parjobs_validation;
        Alcotest.test_case "fnv vectors" `Quick test_fnv_vectors;
        Alcotest.test_case "job parse defaults" `Quick test_job_parse_defaults;
        Alcotest.test_case "job canonical stable" `Quick test_job_canonical_stable;
        Alcotest.test_case "job parse rejects" `Quick test_job_parse_rejects;
        Alcotest.test_case "job parse timeline kind" `Quick test_job_parse_timeline;
        Alcotest.test_case "cache compute then hit" `Quick test_cache_compute_then_hit;
        Alcotest.test_case "cache admit rejection" `Quick test_cache_admit_rejection;
        Alcotest.test_case "cache cancel" `Quick test_cache_cancel;
        Alcotest.test_case "runner unknown names" `Quick test_runner_unknown_names;
        Alcotest.test_case "runner matches direct run" `Quick test_runner_matches_direct_run;
        Alcotest.test_case "runner predict matches the model" `Quick
          test_runner_predict_matches_model;
        Alcotest.test_case "serve miss then hit" `Quick test_serve_miss_then_hit;
        Alcotest.test_case "serve concurrent dedup" `Quick test_serve_concurrent_dedup;
        Alcotest.test_case "serve structured errors" `Quick test_serve_structured_errors;
        Alcotest.test_case "serve timeout" `Quick test_serve_timeout;
        Alcotest.test_case "serve queue full" `Quick test_serve_queue_full;
        Alcotest.test_case "serve latency breakdown" `Quick test_serve_latency_breakdown;
        Alcotest.test_case "serve slow-log round-trip" `Quick test_serve_slow_log_roundtrip;
        Alcotest.test_case "serve counts failed slow captures" `Quick
          test_serve_slow_capture_failure;
      ] );
  ]
