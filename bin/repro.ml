(* repro: regenerate the paper's tables and figures.

   Examples:
     repro table1
     repro fig5 --full          # paper-scale data set
     repro fig6 --nodes 16
     repro fig5 --trace out.jsonl   # capture the coherence event trace
     repro trace out.jsonl          # summarize a captured trace
     repro fig5 --metrics out.json  # capture the metrics registry snapshot
     repro metrics out.jsonl        # derive metrics from a captured trace
     repro all                  # everything, plus the shape checklist *)

open Cmdliner
module E = Ccdsm_harness.Experiments
module Runtime = Ccdsm_runtime.Runtime
module Trace = Ccdsm_tempest.Trace
module Obs = Ccdsm_obs.Obs
module Export = Ccdsm_obs.Export
module Profile = Ccdsm_rdist.Profile
module Rmodel = Ccdsm_rdist.Model
module PC = Ccdsm_harness.Predict_check
module L = Ccdsm_harness.Latency
module Timeline = Ccdsm_obs.Timeline

let scale full = if full then E.Paper else E.scale_of_env ()

let protocols_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "protocol" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated registered protocol names (see the protocol \
           registry; currently stache, predictive, write_update, migratory, \
           commutative).  $(b,sweep): run the registry-driven protocol x app \
           x block-size grid with the differential harness instead of the \
           unopt/opt comparison.  $(b,faults): restrict the fault grid to \
           these protocols.  $(b,check): explore these protocols.  An \
           unknown name exits with code 124 listing the available names.")

(* Both parsers exit 124 on an unknown name — same contract as the other
   CLI-validation failures — with the registry's available-names hint. *)
let parse_protocols resolve = function
  | None -> None
  | Some s ->
      let names =
        String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "")
      in
      if names = [] then begin
        Printf.eprintf "repro: --protocol needs at least one name\n";
        exit 124
      end;
      Some
        (List.map
           (fun n ->
             match resolve n with
             | Ok p -> p
             | Error msg ->
                 Printf.eprintf "repro: %s\n" msg;
                 exit 124)
           names)

let runtime_protocols = parse_protocols Runtime.protocol_of_name
let model_protocols = parse_protocols Ccdsm_check.Model.protocol_of_name

let full_arg =
  Arg.(value & flag & info [ "full" ] ~doc:"Use the paper's data-set sizes (Table 1).")

let quick_arg =
  Arg.(
    value
    & flag
    & info [ "quick" ]
        ~doc:
          "Shrink the grid to the CI smoke configuration: two block sizes and \
           the two cheapest apps ($(b,sweep)).  Quick numbers are only \
           comparable to another quick run.")

let migratory_threshold_arg =
  Arg.(
    value
    & opt int 1
    & info [ "migratory-threshold" ] ~docv:"N"
        ~doc:
          "Read-after-write detections required before the migratory protocol \
           migrates a block's ownership (default 1: migrate on first \
           detection; routed through the protocol registry's per-protocol \
           option records).")

let scaling_nodes_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "nodes" ] ~docv:"LIST"
        ~doc:
          "Comma-separated machine sizes to sweep (default $(b,4,8,16,32,48); \
           each in [1, 1024]).")

let parse_scaling_nodes = function
  | None -> None
  | Some s ->
      let parts =
        String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "")
      in
      if parts = [] then begin
        Printf.eprintf "repro: --nodes needs at least one machine size\n";
        exit 124
      end;
      Some
        (List.map
           (fun p ->
             match int_of_string_opt p with
             | Some n when n >= 1 && n <= Ccdsm_util.Nodeset.max_nodes -> n
             | _ ->
                 Printf.eprintf "repro: --nodes entries must be integers in [1, %d] (got %S)\n"
                   Ccdsm_util.Nodeset.max_nodes p;
                 exit 124)
           parts)

(* --jobs shares CCDSM_JOBS's sanity cap (Parjobs.max_jobs = 4x the
   recommended domain count): a typo like --jobs 1000000 must die with the
   one-line exit-124 diagnostic, not attempt to spawn a million domains. *)
let check_jobs_opt =
  Option.map (fun n ->
      try Ccdsm_harness.Parjobs.validate_jobs ~what:"--jobs" n
      with Invalid_argument msg ->
        Printf.eprintf "repro: %s\n" msg;
        exit 124)

let check_migratory_threshold n =
  if n < 1 then begin
    Printf.eprintf "repro: --migratory-threshold must be >= 1\n";
    exit 124
  end;
  n

let nodes_arg =
  Arg.(
    value
    & opt int 32
    & info [ "nodes" ] ~docv:"N" ~doc:"Number of simulated processors (the paper uses 32).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Compute on $(docv) OCaml domains, the calling domain included: \
           up to $(docv) independent simulated versions run at once \
           (default: $(b,CCDSM_JOBS) or the available cores; output is \
           byte-identical at any job count).  Forced to 1 while \
           $(b,--trace) or $(b,--metrics) is active.  For $(b,serve), the \
           number of worker domains in its pool (default: the available \
           cores).")

(* Every command validates --jobs through the shared cap at argument-
   evaluation time. *)
let jobs_term = Term.(const check_jobs_opt $ jobs_arg)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the coherence event trace (faults, messages, tag transitions, \
           presends) of every simulated machine to $(docv) as JSON lines. \
           Summarize it afterwards with $(b,repro trace) $(docv).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Install a process-global metrics registry for the run and write its \
           final snapshot to $(docv): Prometheus text format when $(docv) ends \
           in $(b,.prom), JSON otherwise.  The snapshot is byte-identical at \
           any $(b,--jobs) setting.")

(* Install the JSONL sink as the process-global trace sink for the duration
   of [f]: experiment drivers create machines internally, and each machine
   picks the sink up at creation time. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
      let oc =
        try open_out path
        with Sys_error msg ->
          Printf.eprintf "repro: cannot open trace file: %s\n" msg;
          exit 1
      in
      Trace.set_global (Some (Trace.jsonl_sink oc));
      Fun.protect
        ~finally:(fun () ->
          Trace.set_global None;
          close_out_noerr oc)
        f

let export_registry path reg =
  let text =
    if Filename.check_suffix path ".prom" then Export.prometheus reg else Export.json reg
  in
  match open_out path with
  | exception Sys_error msg ->
      Printf.eprintf "repro: cannot open metrics file: %s\n" msg;
      exit 1
  | oc ->
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

(* Same idiom for the metrics registry: machines resolve their instrument
   handles against the global registry at creation, [Measure.measure] merges
   each version's child registry into it, and the final snapshot is exported
   when [f] returns. *)
let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some path ->
      let reg = Obs.Registry.create () in
      Obs.set_global (Some reg);
      Fun.protect ~finally:(fun () -> Obs.set_global None) f;
      export_registry path reg

let print_figure fig =
  print_string (E.render fig);
  print_newline ()

let run_table1 full = print_string (E.table1 (scale full))
let run_fig4 () = print_string (E.fig4 ())

let run_fig5 full nodes jobs trace metrics =
  with_metrics metrics (fun () ->
      with_trace trace (fun () -> print_figure (E.fig5 ~num_nodes:nodes ?jobs (scale full))))

let run_fig6 full nodes jobs trace metrics =
  with_metrics metrics (fun () ->
      with_trace trace (fun () -> print_figure (E.fig6 ~num_nodes:nodes ?jobs (scale full))))

let run_fig7 full nodes jobs trace metrics =
  with_metrics metrics (fun () ->
      with_trace trace (fun () -> print_figure (E.fig7 ~num_nodes:nodes ?jobs (scale full))))

let run_sweep full nodes jobs metrics protocols quick migratory_threshold validate_predictor =
  if validate_predictor then begin
    (* Predictor cross-validation: one instrumented run per app x protocol,
       the analytical model across the block-size grid, every prediction
       checked against a full simulation.  Exits 1 on any band violation. *)
    let report = PC.validate ~quick () in
    print_string report.PC.text;
    if not report.PC.pass then exit 1
  end
  else
  let migratory_threshold = check_migratory_threshold migratory_threshold in
  with_metrics metrics (fun () ->
      match runtime_protocols protocols with
      | None -> print_string (E.block_sweep ~num_nodes:nodes ?jobs ~quick (scale full))
      | Some ps ->
          let reports, text =
            E.protocol_sweep ~num_nodes:nodes ?jobs ~quick ~migratory_threshold ~protocols:ps
              (scale full)
          in
          print_string text;
          if not (List.for_all (fun r -> r.Ccdsm_harness.Proto_diff.agree) reports) then begin
            prerr_endline "repro sweep: final heaps disagree across protocols (see table)";
            exit 1
          end)

(* -- first-touch profiling / analytical prediction ------------------------ *)

let is_pow2_block b = b >= 8 && b land (b - 1) = 0

(* Two-stage name resolution, both exiting 124: the protocol registry first
   (its error lists every registered name, same contract as --protocol
   elsewhere), then the analytical model's coverage (its error lists what
   the model handles — a registered-but-unmodeled name like write_update is
   still a CLI-validation failure). *)
let resolve_model_protocol name =
  (match Runtime.protocol_of_name name with
  | Ok _ -> ()
  | Error msg ->
      Printf.eprintf "repro: %s\n" msg;
      exit 124);
  match Rmodel.protocol_of_name name with
  | Ok p -> p
  | Error msg ->
      Printf.eprintf "repro: %s\n" msg;
      exit 124

let find_profile_app name =
  let apps = PC.apps () in
  let want = String.lowercase_ascii name in
  match List.find_opt (fun a -> a.PC.app_name = want) apps with
  | Some a -> a
  | None ->
      Printf.eprintf "repro profile: unknown app %S (available: %s)\n" name
        (String.concat ", " (List.map (fun a -> a.PC.app_name) apps));
      exit 124

let run_events (s : Profile.segment) =
  Array.fold_left
    (fun a ev -> match ev with Profile.Run r -> a + r.count | _ -> a)
    0 s.events

let profile_summary (p : Profile.t) =
  let total f = Array.fold_left (fun a s -> a + f s) 0 p.segments in
  let rows =
    Array.to_list
      (Array.map
         (fun (s : Profile.segment) ->
           [
             string_of_int s.Profile.seq;
             (if s.Profile.phase < 0 then "-" else string_of_int s.Profile.phase);
             s.Profile.name;
             (if s.Profile.presend then "yes" else "");
             string_of_int (run_events s);
             string_of_int s.Profile.a_faults;
             string_of_int s.Profile.a_presends;
             string_of_int s.Profile.a_msgs;
             string_of_int s.Profile.a_bytes;
           ])
         p.segments)
  in
  Printf.sprintf
    "profile: app=%s protocol=%s nodes=%d block_bytes=%d arena_blocks=%d\n\
     segments=%d first-touch events=%d faults=%d presends=%d\n\
     outside-segment traffic: %d msgs, %d bytes\n"
    p.Profile.app p.Profile.protocol p.Profile.nodes p.Profile.block_bytes
    p.Profile.arena_blocks
    (Array.length p.Profile.segments)
    (total run_events)
    (total (fun s -> s.Profile.a_faults))
    (total (fun s -> s.Profile.a_presends))
    p.Profile.out_msgs p.Profile.out_bytes
  ^ Ccdsm_util.Ascii.table
      ~header:[ "seg"; "phase"; "name"; "presend"; "events"; "faults"; "presends"; "msgs"; "bytes" ]
      rows

let run_profile app protocol block_bytes out file =
  match (app, file) with
  | None, None ->
      Printf.eprintf "repro profile: need --app NAME to collect or a FILE to summarize\n";
      exit 124
  | Some _, Some _ ->
      Printf.eprintf "repro profile: --app and a FILE argument are mutually exclusive\n";
      exit 124
  | None, Some path -> (
      match Profile.load path with
      | Error msg ->
          Printf.eprintf "repro profile: %s\n" msg;
          exit 1
      | Ok p -> print_string (profile_summary p))
  | Some name, None -> (
      if not (is_pow2_block block_bytes) then begin
        Printf.eprintf "repro: --block-bytes must be a power of two >= 8 (got %d)\n" block_bytes;
        exit 124
      end;
      let papp = find_profile_app name in
      let protocol = resolve_model_protocol protocol in
      let p = PC.collect_profile papp ~block_bytes ~protocol in
      match out with
      | Some path ->
          Profile.save path p;
          Printf.printf "wrote %s: app=%s protocol=%s nodes=%d block_bytes=%d segments=%d\n" path
            p.Profile.app p.Profile.protocol p.Profile.nodes p.Profile.block_bytes
            (Array.length p.Profile.segments)
      | None -> print_string (Profile.to_json p))

let parse_predict_blocks = function
  | None -> [ 32; 64; 128; 256 ]
  | Some s ->
      let parts =
        String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "")
      in
      if parts = [] then begin
        Printf.eprintf "repro: --blocks needs at least one block size\n";
        exit 124
      end;
      List.map
        (fun part ->
          match int_of_string_opt part with
          | Some b when is_pow2_block b -> b
          | _ ->
              Printf.eprintf "repro: --blocks entries must be powers of two >= 8 (got %S)\n" part;
              exit 124)
        parts

let run_predict file protocol blocks =
  match Profile.load file with
  | Error msg ->
      Printf.eprintf "repro predict: %s\n" msg;
      exit 1
  | Ok p ->
      let name = match protocol with Some n -> n | None -> p.Profile.protocol in
      let protocol = resolve_model_protocol name in
      let blocks = parse_predict_blocks blocks in
      let predictor =
        match Rmodel.prepare p ~net:Ccdsm_tempest.Network.default ~protocol with
        | Ok pr -> pr
        | Error msg ->
            Printf.eprintf "repro predict: %s\n" msg;
            exit 1
      in
      let timings = ref [] in
      let rows =
        List.map
          (fun block_bytes ->
            let t0 = Unix.gettimeofday () in
            let pred =
              match Rmodel.eval predictor ~block_bytes with
              | Ok pred -> pred
              | Error msg ->
                  Printf.eprintf "repro predict: %s\n" msg;
                  exit 1
            in
            timings := ((Unix.gettimeofday () -. t0) *. 1e6) :: !timings;
            [
              string_of_int block_bytes;
              string_of_int pred.Rmodel.faults;
              string_of_int pred.Rmodel.presends;
              string_of_int pred.Rmodel.msgs;
              string_of_int pred.Rmodel.bytes;
              Printf.sprintf "%.0f" pred.Rmodel.p_wall_us;
            ])
          blocks
      in
      (* The prediction table is deterministic (byte-identical across runs);
         wall-clock timing goes to stderr so scripts can diff stdout. *)
      Printf.printf "predict: profile=%s@%dB app=%s nodes=%d model=%s\n" p.Profile.protocol
        p.Profile.block_bytes p.Profile.app p.Profile.nodes
        (Rmodel.protocol_label protocol);
      print_string
        (Ccdsm_util.Ascii.table
           ~header:[ "block(B)"; "faults"; "presends"; "msgs"; "bytes"; "wall(us)" ]
           rows);
      let total = List.fold_left ( +. ) 0.0 !timings in
      Printf.eprintf "predict: %d point%s in %.0f us (%.0f us/point)\n" (List.length blocks)
        (if List.length blocks = 1 then "" else "s")
        total
        (total /. float_of_int (List.length blocks))

(* -- latency attribution / span timelines --------------------------------- *)

let parse_name_list flag = function
  | None -> None
  | Some s ->
      let names =
        String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "")
      in
      if names = [] then begin
        Printf.eprintf "repro: %s needs at least one name\n" flag;
        exit 124
      end;
      Some names

let write_file ~what path text =
  match open_out path with
  | exception Sys_error msg ->
      Printf.eprintf "repro %s: cannot open %s: %s\n" what path msg;
      exit 1
  | oc -> Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

let run_latency apps protocols blocks =
  let apps = parse_name_list "--app" apps in
  let protocols = parse_name_list "--protocol" protocols in
  let blocks = Option.map (fun s -> parse_predict_blocks (Some s)) blocks in
  match L.grid ?apps ?protocols ?blocks () with
  | Error msg ->
      Printf.eprintf "repro latency: %s\n" msg;
      exit 124
  | Ok cells ->
      print_string (L.render cells);
      (match L.shape_checks cells with
      | [] -> ()
      | checks ->
          print_endline "fig. 8 shape checks (paper claims):";
          List.iter
            (fun (claim, ok) -> Printf.printf "  [%s] %s\n" (if ok then "ok" else "MISS") claim)
            checks);
      (* One causal timeline per app x protocol at the grid's first block
         size: the per-phase critical paths, and the exactness teeth — any
         charge the collector missed fails the run. *)
      let first_block = match cells with c :: _ -> c.L.g_block | [] -> 32 in
      let pairs =
        List.fold_left
          (fun acc c ->
            let key = (c.L.g_app, c.L.g_protocol) in
            if List.mem key acc then acc else acc @ [ key ])
          [] cells
      in
      List.iter
        (fun (app, protocol) ->
          match L.timeline_run ~app ~protocol ~block_bytes:first_block with
          | Error msg ->
              Printf.eprintf "repro latency: %s\n" msg;
              exit 1
          | Ok r ->
              print_newline ();
              print_string (L.report r);
              if r.L.t_residuals <> [] then exit 1)
        pairs

let run_timeline app protocol block_bytes out chrome file =
  match (app, file) with
  | None, None ->
      Printf.eprintf "repro timeline: need --app NAME to record or a FILE to summarize\n";
      exit 124
  | Some _, Some _ ->
      Printf.eprintf "repro timeline: --app and a FILE argument are mutually exclusive\n";
      exit 124
  | None, Some path -> (
      match Timeline.load path with
      | Error msg ->
          Printf.eprintf "repro timeline: %s\n" msg;
          exit 1
      | Ok tl ->
          Option.iter (fun p -> write_file ~what:"timeline" p (Timeline.to_chrome tl)) chrome;
          print_string (Timeline.summary tl))
  | Some name, None -> (
      if not (is_pow2_block block_bytes) then begin
        Printf.eprintf "repro: --block-bytes must be a power of two >= 8 (got %d)\n" block_bytes;
        exit 124
      end;
      match L.timeline_run ~app:name ~protocol ~block_bytes with
      | Error msg ->
          Printf.eprintf "repro timeline: %s\n" msg;
          exit 124
      | Ok r ->
          Option.iter (fun p -> write_file ~what:"timeline" p (Timeline.to_jsonl r.L.t_timeline)) out;
          Option.iter
            (fun p -> write_file ~what:"timeline" p (Timeline.to_chrome r.L.t_timeline))
            chrome;
          print_string (L.report r);
          if r.L.t_residuals <> [] then exit 1)

let run_faults full nodes jobs metrics protocols =
  with_metrics metrics (fun () ->
      let protocols = runtime_protocols protocols in
      print_string (E.faults_grid ~num_nodes:nodes ?jobs ?protocols (scale full)))

let run_ablate full nodes jobs metrics =
  with_metrics metrics (fun () -> print_string (E.ablations ~num_nodes:nodes ?jobs (scale full)))

let run_scaling full jobs metrics nodes =
  let nodes = parse_scaling_nodes nodes in
  with_metrics metrics (fun () -> print_string (E.scaling ?jobs ?nodes (scale full)))

let run_inspector full metrics =
  with_metrics metrics (fun () -> print_string (E.inspector (scale full)))

let run_trace file =
  match Ccdsm_harness.Trace_summary.summarize_file file with
  | Ok text -> print_string text
  | Error msg ->
      Printf.eprintf "repro trace: %s\n" msg;
      exit 1

let run_metrics file format =
  match Ccdsm_harness.Trace_metrics.of_file file with
  | Error msg ->
      Printf.eprintf "repro metrics: %s\n" msg;
      exit 1
  | Ok reg ->
      print_string (match format with "prom" -> Export.prometheus reg | _ -> Export.json reg)

let run_check depth seed faults nodes blocks jobs replay mode protocols =
  match replay with
  | Some path -> (
      (* Oracle mode: re-validate a recorded JSONL trace offline. *)
      let mode =
        match mode with
        | "invalidate" -> Ccdsm_check.Replay.Sanitizer.Invalidate
        | "update" -> Ccdsm_check.Replay.Sanitizer.Update
        | "commutative" -> Ccdsm_check.Replay.Sanitizer.Commutative
        | other ->
            Printf.eprintf
              "repro check: unknown --mode %s (use invalidate|update|commutative)\n" other;
            exit 124
      in
      match Ccdsm_check.Replay.file ~mode path with
      | Ok r ->
          Printf.printf "trace ok: %d machine%s, %d events validated%s\n" r.machines
            (if r.machines = 1 then "" else "s")
            r.events
            (if r.skipped = 0 then "" else Printf.sprintf " (%d blank lines)" r.skipped)
      | Error e ->
          Printf.eprintf "repro check: %s: %s\n" path (Ccdsm_check.Replay.error_to_string e);
          exit 1)
  | None ->
      let module D = Ccdsm_harness.Check_driver in
      let protocols = model_protocols protocols in
      let cells = D.run ?jobs ?seed ~depth (D.matrix ?protocols ~faults ~nodes ~blocks ()) in
      print_string (D.render cells);
      let cexs = D.failures cells in
      if cexs <> [] then begin
        (* The counterexamples go to stderr, so they reach the log even
           when stdout is a file (a test rule's target, a pipe). *)
        flush stdout;
        List.iter
          (fun cex ->
            Format.eprintf "@.%a@." Ccdsm_check.Explore.pp_counterexample cex;
            let path = Ccdsm_check.Artifacts.write cex in
            Printf.eprintf "counterexample written to %s\n" path)
          cexs;
        exit 1
      end

(* -- serve / submit ------------------------------------------------------- *)

let parse_listen_addr socket tcp =
  match tcp with
  | None -> `Unix socket
  | Some spec -> (
      match String.rindex_opt spec ':' with
      | Some i -> (
          let host = String.sub spec 0 i in
          let host = if host = "" then "127.0.0.1" else host in
          match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
          | Some port when port >= 0 && port < 65536 -> `Tcp (host, port)
          | _ ->
              Printf.eprintf "repro: --tcp wants HOST:PORT (got %S)\n" spec;
              exit 124)
      | None ->
          Printf.eprintf "repro: --tcp wants HOST:PORT (got %S)\n" spec;
          exit 124)

let run_serve socket tcp http_port jobs max_pending timeout_ms log slow_ms =
  let addr = parse_listen_addr socket tcp in
  let domains =
    match jobs with Some j -> j | None -> Domain.recommended_domain_count ()
  in
  if max_pending < 0 then begin
    Printf.eprintf "repro: --max-pending must be >= 0\n";
    exit 124
  end;
  (match timeout_ms with
  | Some ms when ms < 0. ->
      Printf.eprintf "repro: --timeout-ms must be >= 0\n";
      exit 124
  | _ -> ());
  (match http_port with
  | Some p when p < 0 || p > 65535 ->
      Printf.eprintf "repro: --http-port must be in [0, 65535]\n";
      exit 124
  | _ -> ());
  if slow_ms < 0. then begin
    Printf.eprintf "repro: --slow-ms must be >= 0\n";
    exit 124
  end;
  Ccdsm_serve.Server.run
    {
      Ccdsm_serve.Server.socket = addr;
      http_port;
      domains;
      max_pending;
      timeout_ms;
      log;
      slow_ms;
      apps = None;
    }

let run_submit socket tcp file =
  let addr = parse_listen_addr socket tcp in
  let specs =
    let ic =
      match file with
      | None -> stdin
      | Some path -> (
          try open_in path
          with Sys_error msg ->
            Printf.eprintf "repro submit: %s\n" msg;
            exit 1)
    in
    let rec read acc =
      match input_line ic with
      | line -> read (if String.trim line = "" then acc else line :: acc)
      | exception End_of_file -> List.rev acc
    in
    let specs = read [] in
    if file <> None then close_in_noerr ic;
    specs
  in
  if specs = [] then begin
    Printf.eprintf "repro submit: no job specs (one JSON object per line)\n";
    exit 1
  end;
  let fd, sockaddr =
    match addr with
    | `Unix path -> (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | `Tcp (host, port) ->
        ( Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0,
          Unix.ADDR_INET (Unix.inet_addr_of_string host, port) )
  in
  (try Unix.connect fd sockaddr
   with Unix.Unix_error (e, _, _) ->
     Printf.eprintf "repro submit: cannot connect: %s\n" (Unix.error_message e);
     exit 1);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  List.iter (fun line -> output_string oc (line ^ "\n")) specs;
  flush oc;
  (* One response line per spec, in completion order (correlate by id). *)
  let n = List.length specs in
  let failed = ref false in
  (try
     for _ = 1 to n do
       let line = input_line ic in
       print_endline line;
       (* A daemon-side non-ok status fails the client, so scripts can gate
          on the exit code without parsing JSON.  Only the status is read: a
          timeline reply runs to tens of megabytes. *)
       if Ccdsm_serve.Server.reply_status line <> Some "ok" then failed := true
     done
   with End_of_file ->
     Printf.eprintf "repro submit: connection closed before all responses arrived\n";
     exit 1);
  (try Unix.close fd with _ -> ());
  if !failed then exit 1

let run_all full nodes jobs trace metrics =
  with_metrics metrics @@ fun () ->
  with_trace trace (fun () ->
      let s = scale full in
      print_endline "== Table 1 ==";
      print_string (E.table1 s);
      print_newline ();
      print_endline "== Figure 4 ==";
      print_string (E.fig4 ());
      print_newline ();
      let fig5 = E.fig5 ~num_nodes:nodes ?jobs s in
      print_figure fig5;
      let fig6 = E.fig6 ~num_nodes:nodes ?jobs s in
      print_figure fig6;
      let fig7 = E.fig7 ~num_nodes:nodes ?jobs s in
      print_figure fig7;
      print_string (E.block_sweep ~num_nodes:nodes ?jobs s);
      print_newline ();
      print_string (E.ablations ~num_nodes:nodes ?jobs s);
      print_newline ();
      print_string (E.scaling ?jobs s);
      print_newline ();
      print_string (E.inspector s);
      print_newline ();
      print_endline "== shape checks (paper claims) ==";
      let checks = E.check_shapes ~fig5 ~fig6 ~fig7 in
      List.iter
        (fun (claim, ok) -> Printf.printf "  [%s] %s\n" (if ok then "ok" else "MISS") claim)
        checks;
      if List.for_all snd checks then print_endline "all shape checks hold"
      else print_endline "some shape checks missed (see above)")

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let depth_arg =
  Arg.(
    value
    & opt int 4
    & info [ "depth" ] ~docv:"N"
        ~doc:
          "Explore every protocol state reachable within $(docv) operations \
           (fault-branch cells run one level shallower).")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Shuffle each cell's op-expansion order with this seed.  The explored \
           state set — and therefore the output — is order-invariant; the flag \
           exists to demonstrate that.")

let check_faults_arg =
  Arg.(
    value
    & opt bool true
    & info [ "faults" ] ~docv:"BOOL"
        ~doc:
          "Include the fault-branch cells (scripted message drop/duplication/delay \
           and schedule corruption as explorable operations).")

let check_nodes_arg =
  Arg.(
    value
    & opt int 3
    & info [ "nodes" ] ~docv:"N" ~doc:"Simulated processors in each explored machine.")

let check_blocks_arg =
  Arg.(value & opt int 2 & info [ "blocks" ] ~docv:"N" ~doc:"Cache blocks in each explored machine.")

let replay_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Instead of exploring, replay a JSONL trace (written by --trace) through \
           the invariant oracle: reconstruct a mirror machine from the trace and \
           re-run every sanitizer check offline.")

let mode_arg =
  Arg.(
    value
    & opt string "invalidate"
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Sanitizer mode for --replay: $(b,invalidate) for \
           stache/predictive/migratory traces, $(b,update) for write-update \
           traces, $(b,commutative) for commutative traces.")

(* A plain string, not [Arg.file]: existence is checked by the summarizer
   itself so a missing file yields our one-line error and exit code 1. *)
let trace_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"A JSONL trace written by --trace.")

let metrics_format_arg =
  Arg.(
    value
    & opt (enum [ ("json", "json"); ("prom", "prom") ]) "json"
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Output format: $(b,json) (default) or $(b,prom) (Prometheus text).")

let serve_socket_arg =
  Arg.(
    value
    & opt string "ccdsm-serve.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path for job submission (ignored with $(b,--tcp)).")

let serve_tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Listen on (or, for $(b,submit), connect to) a TCP address instead of the Unix socket.")

let serve_http_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "http-port" ] ~docv:"PORT"
        ~doc:
          "Serve Prometheus $(b,/metrics) and $(b,/healthz) over HTTP on \
           loopback at $(docv) (0 picks a free port, printed at startup). \
           Disabled by default.")

let serve_max_pending_arg =
  Arg.(
    value
    & opt int 256
    & info [ "max-pending" ] ~docv:"N"
        ~doc:
          "Bound on admitted-but-unfinished jobs; submissions beyond it are \
           rejected with a structured reason (backpressure, not teardown).")

let serve_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-job wall-clock timeout.  An expired job's waiters get a \
           $(b,status:\"timeout\") record and the entry is dropped from the \
           cache so a retry recomputes.  No timeout by default.")

let serve_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Append one JSONL record per answered request to $(docv): id, \
           cache disposition, queue-wait and run microseconds, slow flag \
           and outcome.  Flushed per record, so $(b,tail -f) is live.  \
           Disabled by default.")

let serve_slow_ms_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Flag jobs whose run time reaches $(docv) ms as slow: marked in \
           the request log, counted on the slow-jobs metric, and captured \
           (by a deterministic re-run with the timeline collector attached) \
           into a bounded ring retrievable with a \
           $(b,{\"kind\":\"timeline\"}) job.  0 (the default) disables.")

let validate_predictor_arg =
  Arg.(
    value
    & flag
    & info [ "validate-predictor" ]
        ~doc:
          "Cross-validate the first-touch replay predictor instead of \
           sweeping: one instrumented run per app x protocol drives the model \
           across the block-size grid and every prediction is checked against \
           a full simulation (every segment's faults exact at every block \
           size, all counters exact at the profiled block size, tolerance \
           bands elsewhere).  Honors $(b,--quick); exits 1 on any violation.")

let profile_app_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "app" ] ~docv:"NAME"
        ~doc:
          "Collect a profile by running $(docv) (jacobi, adaptive, barnes) \
           once on a fresh instrumented machine.")

let profile_protocol_arg =
  Arg.(
    value
    & opt string "stache"
    & info [ "protocol" ] ~docv:"NAME"
        ~doc:
          "Protocol for the instrumented run (stache or predictive; the \
           analytical model only covers these).  An unknown name exits 124 \
           listing the registry.")

let profile_block_arg =
  Arg.(
    value
    & opt int 32
    & info [ "block-bytes" ] ~docv:"B"
        ~doc:"Block size of the instrumented machine (power of two >= 8; default 32).")

let profile_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the canonical profile JSON to $(docv) instead of stdout.")

let profile_file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"An existing profile JSON to load and summarize.")

(* A plain string, like trace_file_arg: missing files yield our one-line
   exit-1 error, not cmdliner's. *)
let predict_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PROFILE" ~doc:"A profile JSON written by $(b,repro profile -o).")

let predict_protocol_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "protocol" ] ~docv:"NAME"
        ~doc:
          "Protocol to predict under (default: the profile's own).  An \
           unknown name exits 124 listing the registry.")

let predict_blocks_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "blocks" ] ~docv:"LIST"
        ~doc:
          "Comma-separated block sizes to predict (powers of two >= 8; \
           default $(b,32,64,128,256)).")

let latency_apps_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "app" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated apps to decompose (default: all of jacobi, \
           adaptive, barnes).  An unknown name exits 124 listing the \
           available apps.")

let latency_blocks_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "blocks" ] ~docv:"LIST"
        ~doc:"Comma-separated block sizes (powers of two >= 8; default $(b,32,128)).")

let timeline_app_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "app" ] ~docv:"NAME"
        ~doc:
          "Record a causal span timeline by running $(docv) (jacobi, \
           adaptive, barnes) once with the collector attached.")

let timeline_protocol_arg =
  Arg.(
    value
    & opt string "predictive"
    & info [ "protocol" ] ~docv:"NAME"
        ~doc:
          "Protocol for the recorded run (default predictive, which also \
           shows presend grant -> avoided-miss causality).  An unknown name \
           exits 124 listing the registry.")

let timeline_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:
          "Write the timeline as self-describing JSONL to $(docv) \
           (re-summarize it later with $(b,repro timeline) $(docv)).")

let timeline_chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:
          "Export Chrome trace-event JSON to $(docv): one track per node, \
           spans plus flow arrows for message legs.  Open it in \
           chrome://tracing or ui.perfetto.dev.")

let timeline_file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"An existing timeline JSONL (written by $(b,-o)) to summarize.")

let submit_file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Job-spec file, one JSON object per line (default: stdin).")

let cmds =
  [
    cmd "table1" "Print Table 1 (benchmark descriptions)" Term.(const run_table1 $ full_arg);
    cmd "fig4" "Compiler report for the Barnes-Hut skeleton (Figure 4)"
      Term.(const run_fig4 $ const ());
    cmd "fig5" "Adaptive execution-time breakdown (Figure 5)"
      Term.(const run_fig5 $ full_arg $ nodes_arg $ jobs_term $ trace_arg $ metrics_arg);
    cmd "fig6" "Barnes execution-time breakdown (Figure 6)"
      Term.(const run_fig6 $ full_arg $ nodes_arg $ jobs_term $ trace_arg $ metrics_arg);
    cmd "fig7" "Water execution-time breakdown (Figure 7)"
      Term.(const run_fig7 $ full_arg $ nodes_arg $ jobs_term $ trace_arg $ metrics_arg);
    cmd "sweep"
      "Block-size sensitivity sweep (section 5.4); with --protocol, the \
       registry-driven differential protocol sweep"
      Term.(
        const run_sweep $ full_arg $ nodes_arg $ jobs_term $ metrics_arg $ protocols_arg
        $ quick_arg $ migratory_threshold_arg $ validate_predictor_arg);
    cmd "profile"
      "Collect a first-touch access profile from one instrumented run \
       (--app), or summarize an existing profile JSON"
      Term.(
        const run_profile $ profile_app_arg $ profile_protocol_arg $ profile_block_arg
        $ profile_out_arg $ profile_file_arg);
    cmd "predict"
      "Predict per-phase misses, presends and traffic across a block-size \
       grid from a profile, analytically (microseconds per point, no \
       simulation)"
      Term.(const run_predict $ predict_file_arg $ predict_protocol_arg $ predict_blocks_arg);
    cmd "ablate" "Design ablations (coalescing, incremental schedules, interconnect)"
      Term.(const run_ablate $ full_arg $ nodes_arg $ jobs_term $ metrics_arg);
    cmd "faults" "Fault-injection robustness grid (drops/dups/delays/schedule corruption)"
      Term.(const run_faults $ full_arg $ nodes_arg $ jobs_term $ metrics_arg $ protocols_arg);
    cmd "scaling" "Node-count scaling (extension; up to 1024 nodes with --nodes)"
      Term.(const run_scaling $ full_arg $ jobs_term $ metrics_arg $ scaling_nodes_arg);
    cmd "inspector" "Inspector-executor comparison (section 2)"
      Term.(const run_inspector $ full_arg $ metrics_arg);
    cmd "trace" "Summarize a JSONL coherence trace captured with --trace"
      Term.(const run_trace $ trace_file_arg);
    cmd "latency"
      "Fig. 8 wall-clock decomposition across the app x protocol x block \
       grid, plus per-phase critical paths with the exact attribution check"
      Term.(const run_latency $ latency_apps_arg $ protocols_arg $ latency_blocks_arg);
    cmd "timeline"
      "Record a causal span timeline of one run (--app; exportable as JSONL \
       or Chrome trace-event JSON), or summarize an existing timeline JSONL"
      Term.(
        const run_timeline $ timeline_app_arg $ timeline_protocol_arg $ profile_block_arg
        $ timeline_out_arg $ timeline_chrome_arg $ timeline_file_arg);
    cmd "metrics"
      "Derive a metrics registry from a JSONL trace captured with --trace and \
       print it (shared counters agree with the run's own --metrics snapshot \
       to the exact integer)"
      Term.(const run_metrics $ trace_file_arg $ metrics_format_arg);
    cmd "check"
      "Verify the protocols: exhaustive bounded exploration (with fault branches) \
       and shrunk counterexamples, or replay a recorded trace through the \
       invariant oracle with --replay"
      Term.(
        const run_check $ depth_arg $ seed_arg $ check_faults_arg $ check_nodes_arg
        $ check_blocks_arg $ jobs_term $ replay_arg $ mode_arg $ protocols_arg);
    cmd "all" "Everything, plus the qualitative shape checklist"
      Term.(const run_all $ full_arg $ nodes_arg $ jobs_term $ trace_arg $ metrics_arg);
    cmd "serve"
      "Run the simulation service: JSON job specs in over a socket, \
       content-addressed cached results streamed back, on a persistent pool \
       of OCaml domains (SIGTERM drains)"
      Term.(
        const run_serve $ serve_socket_arg $ serve_tcp_arg $ serve_http_port_arg $ jobs_term
        $ serve_max_pending_arg $ serve_timeout_arg $ serve_log_arg $ serve_slow_ms_arg);
    cmd "submit"
      "Submit job specs to a running $(b,repro serve) daemon and print one \
       response line per job (exit 1 if any job did not come back ok)"
      Term.(const run_submit $ serve_socket_arg $ serve_tcp_arg $ submit_file_arg);
  ]

let () =
  (* Validate CCDSM_JOBS and CCDSM_FAULTS up front for a clean one-line
     usage error instead of a backtrace from inside an experiment driver. *)
  (try ignore (Ccdsm_harness.Parjobs.env_jobs ())
   with Invalid_argument msg ->
     Printf.eprintf "repro: %s\n" msg;
     exit 124);
  (match Ccdsm_tempest.Faults.env_plan () with
  | Ok _ -> ()
  | Error msg ->
      Printf.eprintf "repro: %s\n" msg;
      exit 124);
  let info =
    Cmd.info "repro" ~version:"1.0"
      ~doc:"Reproduce the evaluation of 'Compiler-directed Shared-Memory Communication'"
  in
  exit (Cmd.eval (Cmd.group info cmds))
