module Experiments = Ccdsm_harness.Experiments
module Proto_diff = Ccdsm_harness.Proto_diff
module Machine = Ccdsm_tempest.Machine
module Network = Ccdsm_tempest.Network
module Timecap = Ccdsm_tempest.Timecap
module Timeline = Ccdsm_obs.Timeline
module Runtime = Ccdsm_runtime.Runtime
module Shared_heap = Ccdsm_runtime.Shared_heap
module Profile = Ccdsm_rdist.Profile
module Model = Ccdsm_rdist.Model
module Obs = Ccdsm_obs.Obs
module Fnv = Ccdsm_util.Fnv
module Json = Ccdsm_util.Json

type app = string * bool * (Runtime.t -> float)

type sim = {
  spec : Job.spec;
  app_name : string;
  check_races : bool;
  run_app : Runtime.t -> float;
  protocol : Runtime.protocol;
}

type pred = {
  p_spec : Job.spec;
  p_app_name : string;
  p_run_app : Runtime.t -> float;
  p_protocol : Model.protocol;
}

type prepared = Sim of sim | Predict of pred

let lookup_app ?apps (spec : Job.spec) =
  let table =
    match apps with
    | Some t -> t
    | None ->
        Experiments.sweep_apps
          (match spec.scale with `Scaled -> Experiments.Scaled | `Paper -> Experiments.Paper)
  in
  let want = String.lowercase_ascii spec.app in
  match List.find_opt (fun (name, _, _) -> String.lowercase_ascii name = want) table with
  | None ->
      Error
        (Printf.sprintf "unknown app %S (available: %s)" spec.app
           (String.concat ", " (List.map (fun (n, _, _) -> String.lowercase_ascii n) table)))
  | Some row -> Ok row

let prepare ?apps (spec : Job.spec) =
  if spec.kind = `Timeline then
    (* The daemon answers timeline queries inline from the slow ring; one
       reaching the runner means a caller skipped that path. *)
    Error "timeline jobs are answered by the daemon, not the runner"
  else
  match lookup_app ?apps spec with
  | Error msg -> Error msg
  | Ok (app_name, check_races, run_app) -> (
      match spec.kind with
      | `Timeline -> assert false
      | `Sim -> (
          (* Mirrors the CLI's exit-124 diagnostic: [protocol_of_name]'s error
             already lists every registered name. *)
          match Runtime.protocol_of_name spec.protocol with
          | Error msg -> Error msg
          | Ok protocol -> Ok (Sim { spec; app_name; check_races; run_app; protocol }))
      | `Predict -> (
          if spec.faults <> None then
            Error "predict jobs do not support \"faults\" (the model covers fault-free runs)"
          else
            (* Registry first (its error lists every registered name), then
               the model's own coverage — same two-stage validation as the
               repro profile/predict commands. *)
            match Runtime.protocol_of_name spec.protocol with
            | Error msg -> Error msg
            | Ok _ -> (
                match Model.protocol_of_name spec.protocol with
                | Error msg -> Error msg
                | Ok p_protocol ->
                    Ok (Predict { p_spec = spec; p_app_name = app_name; p_run_app = run_app; p_protocol }))))

(* -- per-server state ------------------------------------------------------- *)

let slow_ring_max = 8

(* One server's state: the profile and grid tables behind [profiles_mutex],
   and the slow-job ring behind [slow_mutex].  [nprofiles] mirrors the
   profile table's size, so a metrics scrape reads it without waiting out a
   collection that holds the mutex.  The ring holds (key, entry) pairs,
   newest first, each entry already rendered as its JSON object. *)
type t = {
  profiles_mutex : Mutex.t;
  profiles : (string, Profile.t) Hashtbl.t;
  nprofiles : int Atomic.t;
  grids : (string, (int, string) Hashtbl.t) Hashtbl.t;
  slow_mutex : Mutex.t;
  mutable slow_ring : (string * string) list;
}

let create () =
  {
    profiles_mutex = Mutex.create ();
    profiles = Hashtbl.create 8;
    nprofiles = Atomic.make 0;
    grids = Hashtbl.create 8;
    slow_mutex = Mutex.create ();
    slow_ring = [];
  }

(* -- profile / prediction cache --------------------------------------------
   One first-touch profile per (app, nodes, scale), collected under the
   baseline protocol at the base block size by a single instrumented run.
   The first predict job against a profile compiles a {!Model.predictor}
   and evaluates it over {e every} block size job validation admits (the
   14 powers of two in [8, 65536]).  For the scaled 8-node apps the
   compile (one baseline replay) and the 14 evaluations take 0.06-0.24 s
   on 2 vCPUs, about as long as the 0.10-0.38 s collection run, and they
   make every warm what-if a table lookup rather than a replay.  The
   mutex is held across collection: two racing cold predict jobs for the
   same key would otherwise both simulate.  A different key's cold job
   does wait behind it — acceptable for a cache that fills once per app. *)

let profile_block_bytes = 32
let valid_blocks = List.init 14 (fun i -> 8 lsl i)

let profile_count t = Atomic.get t.nprofiles

let predict_json ~app_name ~nodes ~block_bytes (pred : Model.prediction) =
  Printf.sprintf
    "{\"app\":%s,\"block_bytes\":%d,\"bytes\":%d,\"faults\":%d,\"kind\":\"predict\",\"msgs\":%d,\"nodes\":%d,\"presends\":%d,\"protocol\":%s}"
    (Json.quote (String.lowercase_ascii app_name))
    block_bytes pred.Model.bytes pred.Model.faults pred.Model.msgs nodes pred.Model.presends
    (Json.quote pred.Model.p_protocol)

let grid_for t (p : pred) =
  let spec = p.p_spec in
  let base_key =
    Printf.sprintf "%s|%d|%s"
      (String.lowercase_ascii p.p_app_name)
      spec.nodes
      (match spec.scale with `Scaled -> "scaled" | `Paper -> "paper")
  in
  let grid_key = base_key ^ "|" ^ Model.protocol_label p.p_protocol in
  Mutex.protect t.profiles_mutex (fun () ->
      match Hashtbl.find_opt t.grids grid_key with
      | Some grid -> Ok grid
      | None -> (
          let profile =
            match Hashtbl.find_opt t.profiles base_key with
            | Some profile -> profile
            | None ->
                let cfg =
                  Machine.default_config ~num_nodes:spec.nodes ~block_bytes:profile_block_bytes ()
                in
                let rt = Runtime.create ~cfg ~protocol:Runtime.Stache () in
                let profile, _ =
                  Profile.collect ~app:(String.lowercase_ascii p.p_app_name) ~protocol:"stache"
                    ~arena_blocks:(Shared_heap.arena_blocks (Runtime.heap rt))
                    (Runtime.machine rt)
                    (fun () -> ignore (p.p_run_app rt))
                in
                Hashtbl.replace t.profiles base_key profile;
                Atomic.set t.nprofiles (Hashtbl.length t.profiles);
                profile
          in
          match Model.prepare profile ~net:Network.default ~protocol:p.p_protocol with
          | Error _ as e -> e
          | Ok pr -> (
              let grid = Hashtbl.create 16 in
              match
                List.iter
                  (fun block_bytes ->
                    match Model.eval pr ~block_bytes with
                    | Error msg -> raise (Failure msg)
                    | Ok pred ->
                        Hashtbl.replace grid block_bytes
                          (predict_json ~app_name:p.p_app_name ~nodes:spec.nodes ~block_bytes
                             pred))
                  valid_blocks
              with
              | exception Failure msg -> Error msg
              | () ->
                  Hashtbl.replace t.grids grid_key grid;
                  Ok grid)))

(* -- result rendering ------------------------------------------------------ *)

let latency_json buckets =
  (* Alphabetical keys, like the rest of the result object. *)
  "{"
  ^ String.concat ","
      (List.map
         (fun (name, us) -> Printf.sprintf "%s:%s" (Json.quote name) (Obs.float_to_string us))
         (List.sort (fun (a, _) (b, _) -> compare a b) buckets))
  ^ "}"

let result_json (report : Proto_diff.report) =
  match report.rows with
  | [ row ] ->
      Printf.sprintf
        "{\"app\":%s,\"block_bytes\":%d,\"bytes\":%d,\"checksum\":%s,\"digest\":\"%s\",\"latency\":%s,\"msgs\":%d,\"nodes\":%d,\"protocol\":%s,\"remote_misses\":%d,\"total_us\":%s}"
        (Json.quote report.app)
        report.block_bytes row.bytes
        (Obs.float_to_string row.checksum)
        (Fnv.to_hex row.digest)
        (latency_json row.Proto_diff.buckets)
        row.msgs report.nodes
        (Json.quote row.protocol)
        row.remote_misses
        (Obs.float_to_string row.total_us)
  | rows ->
      invalid_arg (Printf.sprintf "Runner.result_json: expected 1 row, got %d" (List.length rows))

let execute t = function
  | Sim p ->
      let spec = p.spec in
      let report =
        Proto_diff.run ~protocols:[ p.protocol ] ~nodes:spec.nodes ~block_bytes:spec.block_bytes
          ~migratory_threshold:spec.migratory_threshold
          ?faults:spec.faults ~check_races:p.check_races ~app:p.app_name ~run:p.run_app ()
      in
      result_json report
  | Predict p -> (
      match grid_for t p with
      | Error msg -> failwith ("predict: " ^ msg)
      | Ok grid -> (
          match Hashtbl.find_opt grid p.p_spec.block_bytes with
          | Some json -> json
          | None ->
              (* Job validation only admits the precomputed sizes; this is
                 a belt-and-braces guard, not a reachable path. *)
              failwith
                (Printf.sprintf "predict: block size %d outside the precomputed design space"
                   p.p_spec.block_bytes)))

(* -- slow-job timeline ring -------------------------------------------------
   When the daemon flags a job as slow (--slow-ms), the whole point of the
   flag is to answer "where did the time go?" — so the runner captures a
   causal span timeline for it.  Collecting timelines on the hot path would
   tax every job for the benefit of the slow few; instead the simulation is
   deterministic, so a slow job is re-run once with the [Timecap] collector
   attached and the result parked in a small newest-first ring, retrievable
   with a [{"kind":"timeline"}] job.  Predict jobs are microseconds warm and
   answer from a table — re-timing them would time the cache, so only sim
   jobs are recorded.  The run is built by the same [Proto_diff] setup the
   served run used, and each entry is rendered once, here, so a query only
   writes out the rendered entries. *)

let record_slow t ~key ~run_ms = function
  | Predict _ -> ()
  | Sim p ->
      let spec = p.spec in
      let rt =
        Proto_diff.create_runtime ~nodes:spec.nodes ~block_bytes:spec.block_bytes
          ~migratory_threshold:spec.migratory_threshold ~faults:spec.faults
          ~check_races:p.check_races p.protocol
      in
      let cap = Timecap.attach (Runtime.machine rt) in
      ignore (p.run_app rt);
      let tl = Timecap.finish cap in
      let exact = Timecap.check cap = [] in
      let entry =
        Printf.sprintf
          "{\"exact\":%b,\"key\":\"%s\",\"run_ms\":%s,\"spans\":%d,\"spec\":%s,\"timeline\":%s,\"wall_us\":%s}"
          exact key (Obs.float_to_string run_ms) (Timeline.nspans tl) (Job.canonical spec)
          (Json.quote (Timeline.to_jsonl tl))
          (Obs.float_to_string (Runtime.total_time rt))
      in
      Mutex.protect t.slow_mutex (fun () ->
          let keep = List.filter (fun (k, _) -> k <> key) t.slow_ring in
          t.slow_ring <- (key, entry) :: List.filteri (fun i _ -> i < slow_ring_max - 1) keep)

let slow_jobs t = Mutex.protect t.slow_mutex (fun () -> List.map snd t.slow_ring)
