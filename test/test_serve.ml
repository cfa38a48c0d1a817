(* The serving layer: the persistent pool, job-spec parsing
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

(* The first index of [needle] in [haystack]; allocation-free, since a
   timeline-ring answer runs to tens of megabytes. *)
let index_of haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec matches i k = k = nn || (haystack.[i + k] = needle.[k] && matches i (k + 1)) in
  let rec at i = if i + nn > nh then None else if matches i 0 then Some i else at (i + 1) in
  at 0

let contains haystack needle = Option.is_some (index_of haystack needle)

(* -- Pool ------------------------------------------------------------------ *)

(* One ticket per job, each awaited: its own result, whatever order the
   workers finished in. *)
let test_pool_map_order () =
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let tickets = List.init 100 (fun x -> Pool.submit pool (fun () -> x * x)) in
      List.iteri
        (fun x t -> check Alcotest.int "per-ticket result" (x * x) (Pool.await_exn t))
        tickets)

let test_pool_persistent_reuse () =
  (* One pool, many submission waves: the shared queue must keep serving
     after it has drained to empty (fan-out-and-join pools died here). *)
  let pool = Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for wave = 1 to 5 do
        let xs = List.init 40 (fun i -> (wave * 1000) + i) in
        let tickets = List.map (fun x -> Pool.submit pool (fun () -> succ x)) xs in
        check Alcotest.(list int) "wave results" (List.map succ xs)
          (List.map Pool.await_exn tickets)
      done)

let test_pool_error_capture () =
  (* One worker, so the jobs after the raising ones prove it survived. *)
  let pool = Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let t = Pool.submit pool (fun () -> failwith "boom") in
      (match Pool.await t with
      | Error (Failure msg, bt) ->
          check Alcotest.string "exn preserved" "boom" msg;
          ignore (Printexc.raw_backtrace_to_string bt)
      | Error _ -> Alcotest.fail "wrong exception"
      | Ok () -> Alcotest.fail "must fail");
      (match Pool.await_exn (Pool.submit pool (fun () -> failwith "again")) with
      | exception Failure msg -> check Alcotest.string "await_exn re-raises" "again" msg
      | () -> Alcotest.fail "await_exn must re-raise");
      let tickets = List.init 8 (fun i -> Pool.submit pool (fun () -> i)) in
      check Alcotest.(list int) "worker alive after a raise" (List.init 8 Fun.id)
        (List.map Pool.await_exn tickets))

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
  (* A retired key is rejected like any other unknown one. *)
  reject "step_jobs" {|{"app":"w","protocol":"s","step_jobs":1}|} {|unknown key "step_jobs"|};
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
    | Ok p -> Runner.execute (Runner.create ()) p
    | Error msg -> Alcotest.fail msg
  in
  let direct =
    Runner.result_json
      (Proto_diff.run ~protocols:[ Runtime.Stache ] ~nodes:4 ~block_bytes:32 ~app:"tiny"
         ~run:tiny_app ())
  in
  check Alcotest.string "byte-identical to a direct harness run" direct served

(* The jacobi of the predictor's validation set, as a served app. *)
let jacobi_run rt =
  let jacobi =
    List.find
      (fun a -> a.Ccdsm_harness.Predict_check.app_name = "jacobi")
      (Ccdsm_harness.Predict_check.apps ())
  in
  jacobi.Ccdsm_harness.Predict_check.app_run rt;
  0.0

(* The served predict path at every block size [Job] admits, on the 4-node
   jacobi of the predictor's validation set (its predictive replays grant
   presends): each answer equals the model evaluated on a profile collected
   the way the runner collects one (stache, 32-byte blocks), and the
   fourteen jobs share that one profile. *)
let test_runner_predict_matches_model () =
  let job block_bytes =
    Job.parse
      (Printf.sprintf
         {|{"kind":"predict","app":"jacobi","protocol":"predictive","nodes":4,"block_bytes":%d}|}
         block_bytes)
  in
  List.iter
    (fun b -> check Alcotest.bool (Printf.sprintf "%d B rejected" b) true (Result.is_error (job b)))
    [ 4; 131072 ];
  let runner = Runner.create () in
  let cfg = Machine.default_config ~num_nodes:4 ~block_bytes:32 () in
  let rt = Runtime.create ~cfg ~protocol:Runtime.Stache () in
  let profile, _ =
    Profile.collect ~app:"jacobi" ~protocol:"stache"
      ~arena_blocks:(Shared_heap.arena_blocks (Runtime.heap rt))
      (Runtime.machine rt)
      (fun () -> jacobi_run rt)
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
              Runner.prepare ~apps:[ ("jacobi", true, jacobi_run) ] r.Job.spec)
        with
        | Ok p -> Runner.execute runner p
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
  check Alcotest.int "one profile collected" 1 (Runner.profile_count runner)

(* The slow-job capture re-runs the served configuration: on one runner, a
   clean and a faulted spec each leave a ring entry whose simulated wall
   clock is the served result's [total_us], string for string. *)
let test_runner_capture_matches_served () =
  let runner = Runner.create () in
  (* The literal text of the first number member [key] at or after [from]. *)
  let number_text json ~from key =
    let tail = String.sub json from (String.length json - from) in
    match index_of tail (Printf.sprintf "\"%s\":" key) with
    | None -> Alcotest.failf "no %S" key
    | Some i ->
        let start = i + String.length key + 3 in
        let rec stop j = if tail.[j] = ',' || tail.[j] = '}' then j else stop (j + 1) in
        String.sub tail start (stop start - start)
  in
  let served =
    List.map
      (fun (key, line) ->
        let { Job.spec; _ } = parse_ok line in
        let p =
          match Runner.prepare ~apps:[ ("jacobi", true, jacobi_run) ] spec with
          | Ok p -> p
          | Error msg -> Alcotest.fail msg
        in
        let result = Runner.execute runner p in
        Runner.record_slow runner ~key ~run_ms:1.0 p;
        (key, number_text result ~from:0 "total_us"))
      [
        ("clean", {|{"app":"jacobi","protocol":"stache","nodes":8}|});
        ("faulted", {|{"app":"jacobi","protocol":"stache","nodes":8,"faults":"drop=0.05,seed=3"}|});
      ]
  in
  let ring = String.concat "," (Runner.slow_jobs runner) in
  List.iter
    (fun (key, total_us) ->
      match index_of ring (Printf.sprintf "\"key\":\"%s\"" key) with
      | None -> Alcotest.failf "no %s entry" key
      | Some i -> check Alcotest.string (key ^ " wall_us") total_us (number_text ring ~from:i "wall_us"))
    served;
  check Alcotest.bool "the fault plan moves the result" true
    (List.assoc "clean" served <> List.assoc "faulted" served)

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

(* Work after a reply (slow-job captures, log records, failed-write counts)
   is asynchronous: poll for it, for at most 10 s. *)
let poll_until ready fetch =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let v = fetch () in
    if ready v || Unix.gettimeofday () >= deadline then v
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

(* The metrics exposition once it shows [needle] (or after 10 s). *)
let await_metric srv needle =
  poll_until (fun m -> contains m needle) (fun () -> Server.metrics_text srv)

(* The timeline-ring answer once it holds a capture (or after 10 s). *)
let await_ring path =
  match
    poll_until
      (fun rs -> List.exists (fun r -> contains r "\"timeline\":") rs)
      (fun () -> roundtrip path [ {|{"kind":"timeline","id":1}|} ])
  with
  | [ r ] when contains r "\"timeline\":" -> r
  | rs -> Alcotest.fail ("slow job never reached the ring: " ^ String.concat "\n" rs)

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
          (* The capture re-run happens after the response is delivered. *)
          let ring = await_ring path in
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
          (* The capture runs after the answer is delivered. *)
          let counted = "ccdsm_serve_slow_capture_failures_total 1" in
          check Alcotest.bool "failure counted" true (contains (await_metric srv counted) counted);
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

(* A client that shuts down its receive side and then sends two malformed
   specs: the first error reply fails with EPIPE and is counted at the reply
   site; the connection is then dead, so the second reply is dropped
   without another count. *)
let test_serve_counts_reply_failures () =
  with_server (fun srv path ->
      let fd = connect path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.shutdown fd Unix.SHUTDOWN_RECEIVE;
          let s = "not json\nstill not json\n" in
          ignore (Unix.write_substring fd s 0 (String.length s));
          let handled = "ccdsm_serve_requests_total{status=\"error\"} 2" in
          let m = await_metric srv handled in
          check Alcotest.bool "both specs handled" true (contains m handled);
          check Alcotest.bool "one failed reply counted" true
            (contains m "ccdsm_serve_io_errors_total{site=\"reply\"} 1");
          check Alcotest.bool "reader not failed" true
            (contains m "ccdsm_serve_io_errors_total{site=\"reader\"} 0")))

(* A request log that cannot be written (/dev/full): each lost record is
   counted at the log site, and the reader keeps answering its connection. *)
let test_serve_failed_log () =
  with_server ~log:"/dev/full" (fun srv path ->
      let fd = connect path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
          let s = "not json\nstill not json\n" in
          ignore (Unix.write_substring fd s 0 (String.length s));
          let ic = Unix.in_channel_of_descr fd in
          List.iter
            (fun what ->
              match input_line ic with
              | l -> check Alcotest.bool what true (contains l "\"status\":\"error\"")
              | exception (End_of_file | Sys_error _ | Sys_blocked_io) ->
                  Alcotest.failf "%s: no answer" what)
            [ "first spec answered"; "second spec answered" ];
          (* Each record is logged after its reply is written. *)
          let counted = "ccdsm_serve_io_errors_total{site=\"log\"} 2" in
          let m = await_metric srv counted in
          check Alcotest.bool "both lost records counted" true (contains m counted);
          check Alcotest.bool "reader not failed" true
            (contains m "ccdsm_serve_io_errors_total{site=\"reader\"} 0")))

(* A scrape and a cache hit while the one pool domain collects a cold
   8-node barnes profile for a predict job: neither waits for the
   collection, so each answers in under a quarter of the predict's own
   latency. *)
let test_serve_scrape_during_collection () =
  let apps = Ccdsm_harness.Experiments.sweep_apps Ccdsm_harness.Experiments.Scaled @ tiny_apps in
  with_server ~domains:1 ~apps (fun srv path ->
      ignore (roundtrip path [ spec_line ]);
      let timed f =
        let t0 = Unix.gettimeofday () in
        let v = f () in
        (v, Unix.gettimeofday () -. t0)
      in
      let predict = ref ([], 0.0) in
      let predictor =
        Thread.create
          (fun () ->
            predict :=
              timed (fun () ->
                  roundtrip path
                    [ {|{"kind":"predict","app":"barnes","protocol":"predictive","nodes":8}|} ]))
          ()
      in
      Thread.delay 0.1;
      let scrape = ref ("", 0.0) in
      let scraper =
        Thread.create (fun () -> scrape := timed (fun () -> Server.metrics_text srv)) ()
      in
      Thread.delay 0.05;
      let hit, hit_s = timed (fun () -> roundtrip path [ spec_line ]) in
      Thread.join scraper;
      Thread.join predictor;
      let answer, predict_s = !predict and text, scrape_s = !scrape in
      check Alcotest.bool "predict answered" true
        (List.exists (fun r -> contains r "\"status\":\"ok\"") answer);
      check Alcotest.bool "hit answered" true
        (List.exists (fun r -> contains r "\"cache\":\"hit\"") hit);
      check Alcotest.bool "scrape answered" true (contains text "ccdsm_serve_predict_profiles");
      let quick what s =
        if s >= predict_s /. 4.0 then
          Alcotest.failf "%s took %.3f s during a %.3f s cold predict" what s predict_s
      in
      quick "scrape" scrape_s;
      quick "cache hit" hit_s)

(* Two servers in one process keep their own runner state: a slow-job
   capture on the first never shows in the second's timeline ring. *)
let test_serve_runner_per_server () =
  with_server ~slow_ms:0.000001 (fun _ first ->
      with_server (fun _ second ->
          ignore (roundtrip first [ spec_line ]);
          ignore (await_ring first);
          check
            Alcotest.(list string)
            "second server's ring" [ {|{"id":2,"status":"ok","result":{"slow_jobs":[]}}|} ]
            (roundtrip second [ {|{"kind":"timeline","id":2}|} ])))

(* -- the CLI round trip ----------------------------------------------------- *)

(* A response or log line with its cache label blanked. *)
let unlabel line =
  match index_of line "\"cache\":\"" with
  | None -> line
  | Some i ->
      let start = i + String.length "\"cache\":\"" in
      let stop = String.index_from line start '"' in
      String.sub line 0 start ^ "-" ^ String.sub line stop (String.length line - stop)

let lines_of text = List.filter (( <> ) "") (String.split_on_char '\n' text)
let count needle lines = List.length (List.filter (fun l -> contains l needle) lines)

(* [repro serve] and [repro submit] end to end, as a user drives them: a small
   job grid submitted twice over a temporary Unix socket, predict jobs, the
   slow-job timeline ring, /healthz and /metrics over HTTP (on the port the
   startup line reports for --http-port 0), a SIGTERM drain, and the request
   log.  The /metrics text and the log stay next to the test binary
   (serve-metrics.txt, serve-log.jsonl) for inspection. *)
let test_serve_cli_round_trip () =
  let here = Filename.dirname Sys.executable_name in
  let repro = Filename.concat here "../bin/repro.exe" in
  let log = Filename.concat here "serve-log.jsonl" in
  (try Sys.remove log with Sys_error _ -> ());
  let sock = Filename.temp_file "ccdsm-serve" ".sock" in
  Sys.remove sock;
  let spec_file lines =
    let f = Filename.temp_file "ccdsm-jobs" ".txt" in
    Out_channel.with_open_text f (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    f
  in
  let jobs =
    spec_file
      [
        {|{"id":1,"app":"adaptive","protocol":"predictive"}|};
        {|{"id":2,"app":"adaptive","protocol":"stache"}|};
        {|{"id":3,"app":"water","protocol":"predictive","nodes":4}|};
        {|{"id":4,"app":"water","protocol":"migratory","nodes":4}|};
        {|{"id":5,"app":"adaptive","protocol":"commutative","block_bytes":64}|};
        {|{"id":6,"app":"water","protocol":"write_update","nodes":4}|};
      ]
  and predict_jobs =
    spec_file
      [
        {|{"id":"p1","kind":"predict","app":"adaptive","protocol":"predictive"}|};
        {|{"id":"p2","kind":"predict","app":"adaptive","protocol":"predictive",|}
        ^ {|"block_bytes":256}|};
        {|{"id":"p3","kind":"predict","app":"adaptive","protocol":"stache","block_bytes":64}|};
      ]
  and timeline_job = spec_file [ {|{"id":"t1","kind":"timeline"}|} ] in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process repro
      [|
        repro; "serve"; "--socket"; sock; "--http-port"; "0"; "--jobs"; "2"; "--log"; log;
        "--slow-ms"; "0.001";
      |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let server_out = Unix.in_channel_of_descr out_r in
  let running = ref true in
  Fun.protect
    ~finally:(fun () ->
      if !running then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
      end;
      close_in_noerr server_out;
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ sock; jobs; predict_jobs; timeline_job ])
    (fun () ->
      (* The startup line is printed once the listeners are bound. *)
      let startup = input_line server_out in
      let marker = "http://127.0.0.1:" in
      let port =
        match index_of startup marker with
        | Some i -> Scanf.sscanf (String.sub startup (i + String.length marker) 6) "%d" Fun.id
        | None -> Alcotest.fail ("no metrics port in: " ^ startup)
      in
      let submit file =
        let ic =
          Unix.open_process_args_in repro [| repro; "submit"; "--socket"; sock; file |]
        in
        let lines = lines_of (In_channel.input_all ic) in
        if Unix.close_process_in ic <> Unix.WEXITED 0 then Alcotest.fail "repro submit failed";
        List.sort compare lines
      in
      let pass1 = submit jobs and pass2 = submit jobs in
      check Alcotest.int "pass 2 is all hits" 6 (count {|"cache":"hit"|} pass2);
      check Alcotest.(list string) "passes differ only in the cache label"
        (List.map unlabel pass1) (List.map unlabel pass2);
      check Alcotest.int "a latency breakdown on every sim result" 6
        (count {|"latency":{"compute":|} pass1);
      let ppass1 = submit predict_jobs and ppass2 = submit predict_jobs in
      check Alcotest.int "predict pass 2 is all hits" 3 (count {|"cache":"hit"|} ppass2);
      check Alcotest.int "predict keys" 3 (count {|"key":"predict:|} ppass1);
      check Alcotest.int "predict results" 3 (count {|"kind":"predict"|} ppass1);
      check Alcotest.(list string) "predict passes differ only in the cache label"
        (List.map unlabel ppass1) (List.map unlabel ppass2);
      (* Every computed job is slow at 0.001 ms; its capture re-run lands in
         the ring after the reply. *)
      let ring =
        poll_until
          (fun r -> contains r {|"timeline":|})
          (fun () -> String.concat "\n" (submit timeline_job))
      in
      List.iter
        (fun needle -> check Alcotest.bool ("ring has " ^ needle) true (contains ring needle))
        [ {|"slow_jobs":|}; {|"timeline":|}; {|"exact":true|} ];
      let http path =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" path in
            ignore (Unix.write_substring fd req 0 (String.length req));
            let resp = In_channel.input_all (Unix.in_channel_of_descr fd) in
            check Alcotest.bool (path ^ " answers 200") true (contains resp "HTTP/1.1 200 OK");
            match index_of resp "\r\n\r\n" with
            | Some i -> String.sub resp (i + 4) (String.length resp - i - 4)
            | None -> Alcotest.fail ("no body: " ^ resp))
      in
      check Alcotest.string "/healthz" "ok\n" (http "/healthz");
      let metrics = http "/metrics" in
      Out_channel.with_open_text (Filename.concat here "serve-metrics.txt") (fun oc ->
          output_string oc metrics);
      List.iter
        (fun line -> check Alcotest.bool line true (contains metrics line))
        [
          {|ccdsm_serve_cache_total{kind="hit"} 9|};
          {|ccdsm_serve_cache_total{kind="miss"} 9|};
          "ccdsm_serve_predict_jobs_total 6";
          "ccdsm_serve_predict_profiles";
          "ccdsm_serve_slow_jobs_total 9";
        ];
      Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      running := false;
      check Alcotest.bool "SIGTERM drains, exit 0" true (status = Unix.WEXITED 0);
      check Alcotest.bool "socket unlinked" false (Sys.file_exists sock);
      let records = lines_of (In_channel.with_open_text log In_channel.input_all) in
      check Alcotest.int "every computed job logged slow" 9 (count {|"slow":true|} records);
      List.iter
        (fun kind ->
          check Alcotest.bool (kind ^ " logged") true
            (count (Printf.sprintf {|"cache":"%s"|} kind) records > 0))
        [ "timeline"; "hit"; "miss" ];
      check Alcotest.int "every record ok" (List.length records)
        (count {|"status":"ok"|} records))

(* A reply's status is read without decoding the reply.  An id is a scalar
   literal whose quotes, when quoted, are escaped, so an id spelling
   ["status":"ok"] cannot pass for the reply's own status key. *)
let test_reply_status () =
  List.iter
    (fun (line, want) -> check Alcotest.(option string) line want (Server.reply_status line))
    [
      ({|{"id":1,"status":"ok","cache":"miss","key":"k","result":{"status":"x"}}|}, Some "ok");
      ({|{"id":"\"status\":\"ok\"","status":"error","error":"e"}|}, Some "error");
      ({|{"id":null,"status":"rejected","key":"k","error":"queue full"}|}, Some "rejected");
      ({|{"id":true,"status":"timeout","key":"k","error":"job timed out"}|}, Some "timeout");
      ({|{"id":1}|}, None);
      ("", None);
    ]

(* [repro submit] exits 1 when a reply is not ok, also when the failing
   job's id spells ["status":"ok"]. *)
let test_submit_exit_status () =
  let here = Filename.dirname Sys.executable_name in
  let repro = Filename.concat here "../bin/repro.exe" in
  let sock = Filename.temp_file "ccdsm-serve" ".sock" in
  Sys.remove sock;
  let spec = Filename.temp_file "ccdsm-jobs" ".txt" in
  Out_channel.with_open_text spec (fun oc ->
      output_string oc {|{"id":"\"status\":\"ok\"","app":"no-such-app","protocol":"stache"}|};
      output_char oc '\n');
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process repro [| repro; "serve"; "--socket"; sock; "--jobs"; "1" |] Unix.stdin
      out_w Unix.stderr
  in
  Unix.close out_w;
  let server_out = Unix.in_channel_of_descr out_r in
  Fun.protect
    ~finally:(fun () ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      close_in_noerr server_out;
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ sock; spec ])
    (fun () ->
      ignore (input_line server_out);
      let ic = Unix.open_process_args_in repro [| repro; "submit"; "--socket"; sock; spec |] in
      let reply = In_channel.input_all ic in
      let status = Unix.close_process_in ic in
      check Alcotest.bool "the id echoes the decoy" true (contains reply {|\"status\":\"ok\"|});
      check Alcotest.bool "the job failed" true (contains reply {|","status":"error"|});
      check Alcotest.bool "submit exits 1" true (status = Unix.WEXITED 1))

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
        Alcotest.test_case "runner capture re-runs the served spec" `Quick
          test_runner_capture_matches_served;
        Alcotest.test_case "serve miss then hit" `Quick test_serve_miss_then_hit;
        Alcotest.test_case "serve concurrent dedup" `Quick test_serve_concurrent_dedup;
        Alcotest.test_case "serve structured errors" `Quick test_serve_structured_errors;
        Alcotest.test_case "serve timeout" `Quick test_serve_timeout;
        Alcotest.test_case "serve queue full" `Quick test_serve_queue_full;
        Alcotest.test_case "serve latency breakdown" `Quick test_serve_latency_breakdown;
        Alcotest.test_case "serve slow-log round-trip" `Quick test_serve_slow_log_roundtrip;
        Alcotest.test_case "serve counts failed slow captures" `Quick
          test_serve_slow_capture_failure;
        Alcotest.test_case "serve counts failed replies" `Quick test_serve_counts_reply_failures;
        Alcotest.test_case "serve survives a failed request log" `Quick test_serve_failed_log;
        Alcotest.test_case "serve runner state per server" `Quick test_serve_runner_per_server;
        Alcotest.test_case "serve scrape and hit during a cold collection" `Quick
          test_serve_scrape_during_collection;
        Alcotest.test_case "serve CLI round trip" `Quick test_serve_cli_round_trip;
        Alcotest.test_case "reply status without decoding" `Quick test_reply_status;
        Alcotest.test_case "submit exits 1 on a decoy-id failure" `Quick test_submit_exit_status;
      ] );
  ]
