(* The benchmark's command line.  Run from the repository root
   (perfbench/run.sh builds and calls it):

     bench.exe --workload figures|serve --seed N --seconds S --trace 0|1

   prints a human-readable summary on stderr, a "# meta" line and, last, one
   JSON object {correct, attempted, failed, metrics} on stdout.  With
   --trace 0 the metrics are the end-to-end ones, measured untraced; with
   --trace 1 they are the per-layer ones, from a run that records spans
   (written to .perfbench/) and re-times each layer from outside.

     bench.exe expect    regenerates perfbench/expected.tsv *)

open Perfbench

let expected_path = "perfbench/expected.tsv"
let repro = "_build/default/bin/repro.exe"
let out_root = ".perfbench"
let now = Unix.gettimeofday
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

let load_expected () =
  match Expected.load expected_path with
  | Ok t -> t
  | Error msg -> die "cannot load %s: %s" expected_path msg

(* Each value prints with all its digits. *)
let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let emit ~(checks : Checks.t) metrics =
  let metrics =
    List.map
      (fun (name, v, unit) ->
        Checks.check checks (Float.is_finite v) (name ^ ": not a finite number");
        (name, (if Float.is_finite v then v else 0.0), unit))
      metrics
  in
  let body =
    List.map (fun (name, v, unit) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_number v) unit) metrics
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (checks.Checks.failed = 0) (max 1 checks.Checks.attempted) checks.Checks.failed (String.concat "," body)

let report_failures (checks : Checks.t) = List.iter (fun n -> log "  FAILED: %s" n) (List.rev checks.Checks.notes)

(* -- batch worker process ------------------------------------------------------
   One untraced repetition per process: the parent times spawn -> "ready"
   (the set-up: process start, expected table, the workload's inputs) and
   the worker times its own fixed work and reports its peak RSS. *)

let worker seed =
  let jobs = Host.nproc () in
  let expected = load_expected () in
  ignore (Ccdsm_harness.Experiments.sweep_apps Grid.scale);
  print_endline "ready";
  match input_line stdin with
  | "go" ->
      let r = Batch.rep ~jobs ~seed expected in
      report_failures r.Batch.checks;
      let d = Array.of_list r.Batch.driver_s in
      Printf.printf "result %.17g %d %d %d %s %d %.17g %.17g %.17g %.17g\n%!" r.Batch.wall_s r.Batch.cells
        r.Batch.checks.Checks.attempted r.Batch.checks.Checks.failed r.Batch.digest
        (Option.value (Host.vm_hwm_kb 0) ~default:0)
        d.(0) d.(1) d.(2) d.(3)
  | _ -> ()

type worker_rep = {
  r_wall : float;
  r_driver_s : float list;  (** as {!Batch.rep}'s [driver_s] *)
  r_cells : int;
  r_attempted : int;
  r_failed : int;
  r_digest : string;
  r_rss_kb : int;
}

type worker_result = { w_setup : float; w_rep : worker_rep option }

let run_worker ~seed ~go =
  let exe = Sys.executable_name in
  let in_r, in_w = Unix.pipe ~cloexec:true () and out_r, out_w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      [| exe; "worker"; "--seed"; string_of_int seed |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r and oc = Unix.out_channel_of_descr in_w in
  let line () = try input_line ic with End_of_file -> die "worker exited early" in
  if line () <> "ready" then die "worker: bad handshake";
  let w_setup = now () -. t0 in
  output_string oc (if go then "go\n" else "quit\n");
  flush oc;
  let w_rep =
    if not go then None
    else
      Scanf.sscanf (line ()) "result %f %d %d %d %s %d %f %f %f %f"
        (fun r_wall r_cells r_attempted r_failed r_digest r_rss_kb d5 d6 d7 dsweep ->
          Some { r_wall; r_driver_s = [ d5; d6; d7; dsweep ]; r_cells; r_attempted; r_failed; r_digest; r_rss_kb })
  in
  close_out_noerr oc;
  close_in_noerr ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> die "worker failed");
  { w_setup; w_rep }

let setup_samples = 11

(* Repeat the fixed work while the next repetition fits in [seconds] (at
   least once). *)
let repeat ~seconds f =
  let t0 = now () in
  let rec go acc =
    let r, dt =
      let s = now () in
      let r = f () in
      (r, now () -. s)
    in
    let acc = r :: acc in
    if now () -. t0 +. dt <= seconds then go acc else List.rev acc
  in
  go []

let meta ~workload ~seed ~jobs ~load_before ~digest ~extra =
  Printf.printf "# meta {\"workload\":%S,\"seed\":%d,\"nproc\":%d,\"jobs\":%d,\"ocaml\":%S,\"commit\":%S,\"source_digest\":%S,\"loadavg_before\":%S,\"loadavg_after\":%S,\"sim_stats_digest\":%S%s}\n"
    workload seed (Host.nproc ()) jobs Sys.ocaml_version (Host.commit ()) (Host.source_digest ()) load_before
    (Host.loadavg ()) digest extra

(* -- figures workload ---------------------------------------------------------------- *)

let add_rep (checks : Checks.t) r =
  checks.Checks.attempted <- checks.Checks.attempted + r.r_attempted;
  checks.Checks.failed <- checks.Checks.failed + r.r_failed

let times xs = String.concat " " (List.map (Printf.sprintf "%.3f") xs)

let figures_untraced ~seed ~seconds ~jobs ~load_before =
  let workload = "figures" in
  let checks = Checks.create () in
  let reps = repeat ~seconds (fun () -> run_worker ~seed ~go:true) in
  let extra = List.init (max 0 (setup_samples - List.length reps)) (fun _ -> run_worker ~seed ~go:false) in
  let results = List.filter_map (fun r -> r.w_rep) reps in
  let digests = List.sort_uniq compare (List.map (fun r -> r.r_digest) results) in
  List.iter (add_rep checks) results;
  Checks.check checks (List.length digests = 1) "simulated statistics differ between repetitions";
  let walls = List.map (fun r -> r.r_wall) results in
  let cells = match results with r :: _ -> r.r_cells | [] -> 0 in
  (* Each driver at its best over the repetitions (see Stats.best_total). *)
  let wall_s = Stats.best_total (List.map (fun r -> r.r_driver_s) results) in
  let setup_s = Stats.median (List.map (fun r -> r.w_setup) (reps @ extra)) in
  let rss = Stats.median (List.map (fun r -> float_of_int r.r_rss_kb /. 1024.0) results) in
  log "%s: %d reps, wall %s s, best drivers %.3f s, setup %.4f s, peak rss %.1f MB, %d/%d checks failed" workload
    (List.length results) (times walls) wall_s setup_s rss checks.Checks.failed checks.Checks.attempted;
  meta ~workload ~seed ~jobs ~load_before ~digest:(String.concat "," digests)
    ~extra:(Printf.sprintf ",\"reps\":%d,\"cells\":%d,\"median_rep_wall_s\":%.4f" (List.length results) cells
              (Stats.median walls));
  emit ~checks
    [
      ("setup_s", setup_s, "s");
      ("wall_s", wall_s, "s");
      ("jobs_per_s", float_of_int cells /. wall_s, "1/s");
      ("peak_rss_mb", rss, "MB");
    ]

let micro_layers (t : Layers.t) =
  Layers.set t "tempest.read_hit_ns" (Micro.read_hit_ns ~sanitized:false);
  Layers.set t "tempest.read_hit_sanitized_ns" (Micro.read_hit_ns ~sanitized:true);
  Layers.set t "proto.demand_miss_ns" (Micro.demand_miss_ns ());
  Layers.set t "core.phase_step_us" (Micro.phase_step_us ())

let write_spans ~workload ~seed =
  (try Sys.mkdir out_root 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_root (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed) in
  Spans.write path;
  log "spans written to %s" path;
  List.length (Spans.all ())

let figures_traced ~seed ~jobs ~load_before =
  let workload = "figures" in
  let expected = load_expected () in
  (* The untraced baseline the traced run's overhead is measured against. *)
  let base = run_worker ~seed ~go:true in
  let base_rep = Option.get base.w_rep in
  let base_wall = base_rep.r_wall and base_digest = base_rep.r_digest in
  Spans.enabled := true;
  let t = Layers.create () in
  let tr, (san_share, metrics_share) =
    Spans.with_span ("workload:" ^ workload) (fun root ->
        let tr = Batch.traced ~jobs ~seed ~root expected in
        let obs = Batch.obs_sample ~root ~registry:true in
        Spans.with_span ~parent:root "micro" (fun _ -> micro_layers t);
        (tr, obs))
  in
  let checks = tr.Batch.t_checks in
  add_rep checks base_rep;
  Checks.check checks (tr.Batch.t_figures_digest = base_digest) "replayed figure rows differ from the drivers' rows";
  Layers.of_cells t tr.Batch.cells;
  let cell_ms = List.map (fun c -> c.Batch.o_host_s *. 1000.0) tr.Batch.cells in
  Layers.set t "harness.cell_ms.p50" (Stats.median cell_ms);
  Layers.set t "harness.cell_ms.max" (List.fold_left Float.max 0.0 cell_ms);
  Layers.set t "harness.busy_ratio" (Stats.sum cell_ms /. 1000.0 /. (tr.Batch.fanouts_s *. float_of_int jobs));
  Layers.set t "obs.sanitizer_share" san_share;
  Layers.set t "obs.metrics_share" metrics_share;
  Layers.set t "sim.stats_digest" (Digest.as_number tr.Batch.t_digest);
  Layers.set t "trace.overhead_ratio" ((tr.Batch.fanouts_s -. base_wall) /. base_wall);
  Layers.set t "trace.spans" (float_of_int (write_spans ~workload ~seed));
  report_failures checks;
  log "figures traced: replay %.3f s vs untraced %.3f s; %d/%d checks failed" tr.Batch.fanouts_s base_wall
    checks.Checks.failed checks.Checks.attempted;
  meta ~workload ~seed ~jobs ~load_before ~digest:(Digest.hex tr.Batch.t_digest)
    ~extra:(Printf.sprintf ",\"untraced_sim_stats_digest\":%S" base_digest);
  emit ~checks (Layers.to_list t)

(* -- serve workload ------------------------------------------------------------------- *)

let serve_dir () =
  (try Sys.mkdir out_root 0o755 with Sys_error _ -> ());
  let dir = Filename.concat out_root (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  dir

let cleanup dir =
  Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) (Sys.readdir dir);
  try Sys.rmdir dir with Sys_error _ -> ()

let latencies pred (r : Load.rep) =
  List.filter_map (fun (a : Load.answer) -> if pred a.Load.req then Some (Load.latency_ms a) else None) r.Load.answers

let is_cold (q : Traffic.req) = q.Traffic.cold
let is_warm (q : Traffic.req) = (not q.Traffic.cold) && q.Traffic.kind <> Traffic.Bad

let serve_untraced ~seed ~seconds ~jobs ~load_before =
  let expected = load_expected () in
  let reqs = Traffic.generate ~seed in
  let dir = serve_dir () in
  let reps = repeat ~seconds (fun () -> Load.rep ~repro ~dir ~clients:jobs ~reqs expected) in
  let extra = List.init (max 0 (setup_samples - List.length reps)) (fun _ -> Load.setup_sample ~repro ~dir ~clients:jobs) in
  let probe_checks, captures = Load.probe ~repro ~dir ~clients:jobs expected in
  cleanup dir;
  let checks = probe_checks in
  List.iter (fun r -> Checks.merge ~into:checks r.Load.checks) reps;
  let digests = List.sort_uniq compare (List.map (fun r -> r.Load.digest) reps) in
  Checks.check checks (List.length digests = 1) "simulated statistics differ between repetitions";
  report_failures checks;
  let med f = Stats.median (List.map f reps) in
  (* Each cold request and the warm phase at its best over the repetitions
     (see Stats.best_total). *)
  let wall_s = Stats.best_total (List.map (fun r -> r.Load.units) reps) in
  let setup_s = Stats.median (List.map (fun r -> r.Load.setup_s) reps @ extra) in
  let cold = List.concat_map (latencies is_cold) reps and warm = List.concat_map (latencies is_warm) reps in
  let tail xs =
    match Stats.tail_percentile (List.length xs) with
    | Some p -> Printf.sprintf "p%g %.3f ms" p (Stats.percentile p xs)
    | None -> "no tail"
  in
  log "serve: %d reps, wall %s s, best requests %.3f s, setup %.4f s, cold p50 %.1f ms %s (n=%d), warm p50 %.3f ms %s (n=%d), probe captures %d, %d/%d checks failed"
    (List.length reps)
    (times (List.map (fun r -> r.Load.wall_s) reps))
    wall_s setup_s (Stats.median cold) (tail cold) (List.length cold) (Stats.median warm) (tail warm) (List.length warm)
    captures
    checks.Checks.failed checks.Checks.attempted;
  meta ~workload:"serve" ~seed ~jobs:(Load.pool_jobs ~clients:jobs) ~load_before ~digest:(String.concat "," digests)
    ~extra:(Printf.sprintf ",\"reps\":%d,\"requests\":%d,\"spec_digest\":%S,\"median_rep_wall_s\":%.4f"
              (List.length reps) (List.length reqs) (Traffic.digest reqs) (med (fun r -> r.Load.wall_s)));
  emit ~checks
    [
      ("setup_s", setup_s, "s");
      ("wall_s", wall_s, "s");
      ("jobs_per_s", med (fun r -> float_of_int r.Load.valid_ok) /. wall_s, "1/s");
      ("peak_rss_mb", med (fun r -> float_of_int r.Load.rss_kb /. 1024.0), "MB");
    ]

let serve_traced ~seed ~jobs ~load_before =
  let expected = load_expected () in
  let reqs = Traffic.generate ~seed in
  let dir = serve_dir () in
  let base = Load.rep ~repro ~dir ~clients:jobs ~reqs expected in
  Spans.enabled := true;
  let t = Layers.create () in
  let rs, (probe_checks, captures), rd, (san_share, _) =
    Spans.with_span "workload:serve" (fun root ->
        let rs = List.init Load.traced_reps (fun _ -> Load.rep ~repro ~dir ~clients:jobs ~reqs expected) in
        let probe = Load.probe ~repro ~dir ~clients:jobs expected in
        let rd = Rdist_probe.run ~root in
        let obs = Batch.obs_sample ~root ~registry:false in
        Spans.with_span ~parent:root "micro" (fun _ ->
            micro_layers t;
            Layers.set t "serve.parse_us" (Micro.parse_us (List.map (fun q -> q.Traffic.line) reqs)));
        (rs, probe, rd, obs))
  in
  cleanup dir;
  let r = List.hd rs in
  let checks = Checks.create () in
  List.iter (fun (r : Load.rep) -> Checks.merge ~into:checks r.Load.checks) (base :: rs);
  Checks.merge ~into:checks probe_checks;
  let digests = List.sort_uniq compare (List.map (fun (r : Load.rep) -> r.Load.digest) (base :: rs)) in
  Checks.check checks (List.length digests = 1) "simulated statistics differ between repetitions";
  (* Latencies and daemon-log figures pool the traced repetitions. *)
  let cold = List.concat_map (latencies is_cold) rs and warm = List.concat_map (latencies is_warm) rs in
  Checks.check checks (Stats.supports ~n:(List.length cold) 80.0) "serve: too few cold samples for p80";
  Layers.set t "serve.cold_p50_ms" (Stats.median cold);
  Layers.set t "serve.cold_p80_ms" (Stats.percentile 80.0 cold);
  Layers.set t "serve.warm_p50_ms" (Stats.median warm);
  Layers.set t "serve.warm_p95_ms" (Stats.percentile 95.0 warm);
  let computed =
    List.concat_map (fun (r : Load.rep) -> List.filter (fun (_, l) -> l.Load.l_cache = "miss") r.Load.log) rs
  in
  Layers.set t "serve.queue_wait_ms.p50" (Stats.median (List.map (fun (_, l) -> l.Load.l_queue_ms) computed));
  Layers.set t "serve.queue_wait_ms.p95" (Stats.percentile 95.0 (List.map (fun (_, l) -> l.Load.l_queue_ms) computed));
  Layers.set t "serve.run_ms.p50" (Stats.median (List.map (fun (_, l) -> l.Load.l_run_ms) computed));
  let valid (r : Load.rep) =
    List.filter (fun (a : Load.answer) -> a.Load.req.Traffic.kind <> Traffic.Bad) r.Load.answers
  in
  Layers.set t "serve.overhead_ms.p50"
    (Stats.median
       (List.concat_map
          (fun (r : Load.rep) ->
            List.filter_map
              (fun (a : Load.answer) ->
                Option.map
                  (fun l -> Load.latency_ms a -. l.Load.l_queue_ms -. l.Load.l_run_ms)
                  (Hashtbl.find_opt r.Load.by_id a.Load.req.Traffic.id))
              (valid r))
          rs));
  let hits = List.filter (fun (a : Load.answer) -> Load.str_field a.Load.line "cache" = Some "hit") (valid r) in
  Layers.set t "serve.hit_ratio" (float_of_int (List.length hits) /. float_of_int (List.length (valid r)));
  Layers.set t "serve.rejected"
    (float_of_int
       (List.length
          (List.concat_map (fun (r : Load.rep) -> List.filter (fun (_, l) -> l.Load.l_status = "rejected") r.Load.log) rs)));
  Layers.set t "serve.slow_captures" (float_of_int captures);
  (* Simulated counts and daemon-side host time of the sims one repetition
     computed, as the median over the repetitions (the counts are the same
     in each). *)
  let sums =
    List.map
      (fun (r : Load.rep) ->
        let s = Layers.create () in
        List.iter
          (fun (a : Load.answer) ->
            let q = a.Load.req in
            if q.Traffic.kind = Traffic.Sim && Load.str_field a.Load.line "cache" = Some "miss" then begin
              let num k = Option.value (Load.num_field a.Load.line k) ~default:0.0 in
              Layers.add s "tempest.msgs" (num "msgs");
              Layers.add s "tempest.bytes" (num "bytes");
              Layers.add s ("proto." ^ q.Traffic.protocol ^ ".remote_misses") (num "remote_misses");
              match Hashtbl.find_opt r.Load.by_id q.Traffic.id with
              | Some l ->
                  Layers.add s ("proto." ^ q.Traffic.protocol ^ ".host_s") (l.Load.l_run_ms /. 1000.0);
                  Layers.add s ("apps." ^ q.Traffic.app ^ ".host_s") (l.Load.l_run_ms /. 1000.0)
              | None -> ()
            end)
          r.Load.answers;
        s)
      rs
  in
  List.iter
    (fun (name, _) ->
      if List.exists (fun s -> Hashtbl.mem s name) sums then
        Layers.set t name (Stats.median (List.map (fun s -> Layers.get s name) sums)))
    Layers.all;
  List.iter (fun (app, s) -> Layers.set t ("rdist." ^ app ^ ".profile_s") s) rd.Rdist_probe.profile_s;
  Layers.set t "rdist.prepare_ms" rd.Rdist_probe.prepare_ms;
  Layers.set t "rdist.eval_us" rd.Rdist_probe.eval_us;
  Layers.set t "obs.sanitizer_share" san_share;
  Layers.set t "sim.stats_digest"
    (Int64.to_float (Int64.logand (Int64.of_string ("0x" ^ r.Load.digest)) 0xF_FFFF_FFFF_FFFFL));
  let traced_wall = Stats.median (List.map (fun (r : Load.rep) -> r.Load.wall_s) rs) in
  Layers.set t "trace.overhead_ratio" ((traced_wall -. base.Load.wall_s) /. base.Load.wall_s);
  Layers.set t "trace.spans" (float_of_int (write_spans ~workload:"serve" ~seed));
  report_failures checks;
  log "serve traced: %d reps, wall %.3f s vs untraced %.3f s; %d cold, %d warm samples; %d/%d checks failed"
    (List.length rs) traced_wall base.Load.wall_s (List.length cold) (List.length warm) checks.Checks.failed
    checks.Checks.attempted;
  meta ~workload:"serve" ~seed ~jobs:(Load.pool_jobs ~clients:jobs) ~load_before ~digest:r.Load.digest
    ~extra:(Printf.sprintf ",\"spec_digest\":%S" (Traffic.digest reqs));
  emit ~checks (Layers.to_list t)

(* -- expected table ---------------------------------------------------------------- *)

let regenerate () =
  let tbl : Expected.t = Hashtbl.create 64 in
  let add app ~nodes ~block =
    let k = Expected.key app ~nodes ~block in
    if not (Hashtbl.mem tbl k) then begin
      let entry =
        match app with
        | "barnes_spmd" | "water_splash" ->
            (* Figure-only versions: a checksum is all the figure rows carry. *)
            let protocol =
              if app = "barnes_spmd" then Ccdsm_runtime.Runtime.Write_update else Ccdsm_runtime.Runtime.Stache
            in
            let m =
              Ccdsm_harness.Measure.measure ~num_nodes:nodes
                (Ccdsm_harness.Measure.version ~label:app ~protocol ~block_bytes:block (Grid.variant_run app))
            in
            { Expected.digest = None; checksum = m.Ccdsm_harness.Measure.checksum }
        | _ ->
            let races, run = Grid.app_run app in
            let r =
              Ccdsm_harness.Proto_diff.run ~protocols:[ Ccdsm_runtime.Runtime.Stache ] ~nodes ~block_bytes:block
                ~check_races:races ~app ~run ()
            in
            let row = List.hd r.Ccdsm_harness.Proto_diff.rows in
            { Expected.digest = Some row.Ccdsm_harness.Proto_diff.digest; checksum = row.Ccdsm_harness.Proto_diff.checksum }
      in
      log "%s" (Expected.line k entry);
      Hashtbl.replace tbl k entry
    end
  in
  List.iter (fun (c : Grid.cell) -> add c.Grid.app ~nodes:Grid.figure_nodes ~block:c.Grid.block) Grid.figure_cells;
  List.iter (fun (app, _, block) -> add app ~nodes:Grid.serve_nodes ~block) Traffic.sim_specs;
  List.iter (fun (q : Traffic.req) -> add q.Traffic.app ~nodes:Grid.serve_nodes ~block:q.Traffic.block) Traffic.probe;
  Out_channel.with_open_bin expected_path (fun oc -> output_string oc (Expected.to_string tbl))

(* -- command line ------------------------------------------------------------------- *)

let () =
  let mode = ref "run" and workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME figures | serve");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
  in
  let usage = "bench.exe [worker|expect] --workload NAME --seed N --seconds S --trace 0|1" in
  (try Arg.parse_argv Sys.argv spec (fun m -> mode := m) usage
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  if not (Sys.file_exists expected_path && Sys.file_exists "lib") then
    die "run from the repository root (no %s or lib/ here)" expected_path;
  let load_before = Host.loadavg () and jobs = Host.nproc () in
  match (!mode, !workload) with
  | "expect", _ -> regenerate ()
  | "worker", _ -> worker !seed
  | "run", "figures" when !trace = 0 -> figures_untraced ~seed:!seed ~seconds:!seconds ~jobs ~load_before
  | "run", "figures" -> figures_traced ~seed:!seed ~jobs ~load_before
  | "run", "serve" ->
      if not (Sys.file_exists repro) then die "no repro executable at %s" repro;
      if !trace = 0 then serve_untraced ~seed:!seed ~seconds:!seconds ~jobs ~load_before
      else serve_traced ~seed:!seed ~jobs ~load_before
  | _ -> die "unknown workload %S (figures or serve)" !workload
