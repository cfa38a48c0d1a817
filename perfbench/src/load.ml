(* The serve workload: a closed loop against a fresh `repro serve` daemon.

   Each repetition spawns its own daemon on a private socket (the runner's
   profile and grid tables are process globals and the cache never evicts,
   so an in-process restart would carry warm state over), with a pool of
   {!pool_jobs} domains.  The cold phase sends every distinct spec once,
   one at a time over one connection, so a cold request's latency is its
   own service time and does not depend on which job the seed put ahead of
   it.  The warm phase starts when the cold phase has been answered: there
   [clients] connections (one per core) each keep one request outstanding.
   VmHWM is read from /proc before SIGTERM, and the drain must exit 0 with
   every request answered and logged.

   The measured daemon runs without --slow-ms: no fixed threshold splits
   its cold sims the same way on every run (see {!probe}). *)

let now = Unix.gettimeofday

(* -- flat JSON field access ----------------------------------------------------
   The daemon's records are one-line objects with unique keys, so a key's
   value is found by its quoted name. *)

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec at i k = k = m || (s.[i + k] = sub.[k] && at i (k + 1)) in
  let rec go i = if i + m > n then None else if at i 0 then Some i else go (i + 1) in
  go from

let raw_field s key =
  match find_sub s ("\"" ^ key ^ "\":") 0 with
  | None -> None
  | Some i ->
      let j = i + String.length key + 3 in
      if j < String.length s && s.[j] = '"' then
        match String.index_from_opt s (j + 1) '"' with
        | Some k -> Some (String.sub s (j + 1) (k - j - 1))
        | None -> None
      else
        let k = ref j in
        while !k < String.length s && not (List.mem s.[!k] [ ','; '}'; ']' ]) do incr k done;
        Some (String.sub s j (!k - j))

let str_field s key = raw_field s key
let num_field s key = Option.bind (raw_field s key) float_of_string_opt
let int_field s key = Option.map int_of_float (num_field s key)

(* The "result" object of an ok response, as its exact bytes. *)
let result_object s =
  match find_sub s "\"result\":" 0 with
  | None -> None
  | Some i -> Some (String.sub s (i + 9) (String.length s - i - 10))

(* -- daemon ------------------------------------------------------------------- *)

type daemon = { pid : int; sock : string; spawned : float; ready : float }

(* The daemon's pool leaves one core to the client and the daemon's own
   threads, so no more threads compete for the cores than there are cores.
   With a pool domain on every core, each minor collection (a stop-the-world
   sync of all domains) also waits on whichever domain the client has just
   displaced. *)
let pool_jobs ~clients = max 1 (clients - 1)

let kill_now pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

let spawn ~repro ~dir ~tag ~pool ?log ?slow_ms () =
  let sock = Filename.concat dir (tag ^ ".sock") in
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    [ repro; "serve"; "--socket"; sock; "--jobs"; string_of_int pool ]
    @ (match log with Some l -> [ "--log"; l ] | None -> [])
    @ match slow_ms with Some ms -> [ "--slow-ms"; Printf.sprintf "%g" ms ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile (Filename.concat dir (tag ^ ".err")) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let spawned = now () in
  let pid = Unix.create_process repro (Array.of_list args) devnull devnull err in
  Unix.close devnull;
  Unix.close err;
  (* Ready = the socket accepts a connection. *)
  let rec wait () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () ->
        Unix.close fd;
        now ()
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        if now () -. spawned > 30.0 then failwith "repro serve did not start accepting within 30 s";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "repro serve exited before accepting");
        Unix.sleepf 0.0005;
        wait ()
  in
  match wait () with
  | ready -> { pid; sock; spawned; ready }
  | exception e ->
      kill_now pid;
      raise e

(* SIGTERM, then wait for the drain; [Some code] on a normal exit. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 60.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        kill_now d.pid;
        None
    | _, Unix.WEXITED c -> Some c
    | _, _ -> None
  in
  let code = wait () in
  (try Sys.remove d.sock with Sys_error _ -> ());
  code

(* Run [f d] and make sure the daemon is gone afterwards, whatever [f] did;
   [f] ends by calling {!stop}. *)
let with_daemon d f =
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () -> if not !stopped then kill_now d.pid)
    (fun () ->
      let r = f d in
      stopped := true;
      r)

(* -- closed-loop client ------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; mutable lines : string list; mutable busy : bool }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; buf = Buffer.create 4096; lines = []; busy = false }

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off = if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off)) in
  go 0

let chunk = Bytes.create 65536

(* Read what is available; complete lines are queued on the connection.
   Only the new bytes are scanned, so a long line (the timeline reply runs
   to tens of MB) costs linear time. *)
let pump c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "repro serve closed a connection"
  | n -> (
      match Bytes.rindex_from_opt chunk (n - 1) '\n' with
      | None -> Buffer.add_subbytes c.buf chunk 0 n
      | Some last ->
          Buffer.add_subbytes c.buf chunk 0 last;
          let s = Buffer.contents c.buf in
          Buffer.clear c.buf;
          Buffer.add_subbytes c.buf chunk (last + 1) (n - last - 1);
          c.lines <- c.lines @ String.split_on_char '\n' s)

let rec read_line c =
  match c.lines with
  | l :: rest ->
      c.lines <- rest;
      l
  | [] ->
      pump c;
      read_line c

type answer = { req : Traffic.req; line : string; sent : float; recv : float }

let latency_ms a = (a.recv -. a.sent) *. 1000.0

(* Drive [reqs] through the connections, one outstanding per connection. *)
let run_phase conns reqs =
  let queue = Queue.of_seq (List.to_seq reqs) in
  let inflight = Hashtbl.create 8 in
  let answers = ref [] in
  let feed c =
    match Queue.take_opt queue with
    | None -> ()
    | Some r ->
        Hashtbl.replace inflight c.fd (r, now ());
        c.busy <- true;
        send c r.Traffic.line
  in
  List.iter feed conns;
  while List.exists (fun c -> c.busy) conns do
    let fds = List.filter_map (fun c -> if c.busy then Some c.fd else None) conns in
    let ready, _, _ = try Unix.select fds [] [] 60.0 with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], []) in
    if ready = [] then failwith "no reply from repro serve within 60 s";
    List.iter
      (fun c ->
        if List.mem c.fd ready then begin
          pump c;
          match c.lines with
          | line :: rest ->
              let recv = now () in
              c.lines <- rest;
              let req, sent = Hashtbl.find inflight c.fd in
              Hashtbl.remove inflight c.fd;
              c.busy <- false;
              answers := { req; line; sent; recv } :: !answers;
              feed c
          | [] -> ()
        end)
      conns
  done;
  List.rev !answers

(* -- one repetition -------------------------------------------------------------- *)

type log_rec = { l_cache : string; l_queue_ms : float; l_run_ms : float; l_status : string; l_slow : bool }

let parse_log path =
  let lines =
    try In_channel.with_open_bin path In_channel.input_all |> String.split_on_char '\n' with Sys_error _ -> []
  in
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        Some
          ( int_field line "id",
            {
              l_cache = Option.value (str_field line "cache") ~default:"";
              l_queue_ms = Option.value (num_field line "queue_wait_us") ~default:0.0 /. 1000.0;
              l_run_ms = Option.value (num_field line "run_us") ~default:0.0 /. 1000.0;
              l_status = Option.value (str_field line "status") ~default:"";
              l_slow = str_field line "slow" = Some "true";
            } ))
    lines

type rep = {
  answers : answer list;
  log : (int option * log_rec) list;
  by_id : (int, log_rec) Hashtbl.t;  (** the daemon's log record of each request *)
  wall_s : float;
  units : float list;
      (** the latency of each cold request, in request order, then the warm
          phase's wall time, in seconds *)
  setup_s : float;
  rss_kb : int;
  checks : Checks.t;
  digest : string;
  valid_ok : int;
}

let expect_status (r : Traffic.req) = match r.kind with Traffic.Bad -> "error" | _ -> "ok"

let check_answer checks expected a =
  let r = a.req in
  let ok =
    str_field a.line "status" = Some (expect_status r)
    &&
    match r.kind with
    | Traffic.Bad -> raw_field a.line "error" <> None
    | Traffic.Predict -> str_field a.line "kind" = Some "predict"
    | Traffic.Sim -> (
        match (Option.bind (str_field a.line "digest") (fun d -> Int64.of_string_opt ("0x" ^ d)), raw_field a.line "checksum") with
        | Some digest, Some checksum ->
            Expected.matches_rendered expected (Expected.key r.app ~nodes:Grid.serve_nodes ~block:r.block) ~digest checksum
        | _ -> false)
  in
  Checks.check checks ok (Printf.sprintf "serve request %d (%s): %s" r.id r.line a.line);
  ok

(* Entries of the {"kind":"timeline"} reply, by their "exact" flags. *)
let exact_flags timeline =
  let rec count from acc =
    match find_sub timeline "\"exact\":" from with
    | None -> List.rev acc
    | Some i -> count (i + 8) (String.starts_with ~prefix:"true" (String.sub timeline (i + 8) (min 4 (String.length timeline - i - 8))) :: acc)
  in
  count 0 []

let rep ~repro ~dir ~clients ~reqs expected =
  let checks = Checks.create () in
  let log = Filename.concat dir "serve-log.jsonl" in
  (try Sys.remove log with Sys_error _ -> ());
  let d = spawn ~repro ~dir ~tag:"serve" ~pool:(pool_jobs ~clients) ~log () in
  let (cold_span, cold), (warm_span, warm), rss_kb, code =
    with_daemon d (fun d ->
        let conns = List.init clients (fun _ -> connect d.sock) in
        let phase name conns reqs = Spans.with_span ("serve." ^ name) (fun id -> (id, run_phase conns reqs)) in
        let cold = phase "cold" [ List.hd conns ] (List.filter (fun r -> r.Traffic.cold) reqs) in
        let warm = phase "warm" conns (List.filter (fun r -> not r.Traffic.cold) reqs) in
        let rss_kb = Option.value (Host.vm_hwm_kb d.pid) ~default:0 in
        List.iter (fun c -> Unix.close c.fd) conns;
        (cold, warm, rss_kb, stop d))
  in
  let phases = [ (cold_span, cold); (warm_span, warm) ] in
  let answers = cold @ warm in
  let span answers =
    List.fold_left (fun acc a -> Float.max acc a.recv) 0.0 answers
    -. List.fold_left (fun acc a -> Float.min acc a.sent) infinity answers
  in
  let units =
    List.map (fun a -> a.recv -. a.sent) (List.sort (fun a b -> compare a.req.Traffic.id b.req.Traffic.id) cold)
    @ [ span warm ]
  in
  Checks.check checks (code = Some 0) "serve: drain did not exit 0";
  Checks.check checks (List.length answers = List.length reqs) "serve: a request went unanswered";
  let valid_ok =
    List.fold_left
      (fun n a -> if check_answer checks expected a && a.req.Traffic.kind <> Traffic.Bad then n + 1 else n)
      0 answers
  in
  let log = parse_log log in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (id, l) -> Option.iter (fun id -> Hashtbl.replace by_id id l) id) log;
  Checks.check checks (List.length log = List.length reqs) "serve: log records != requests";
  List.iter
    (fun (r : Traffic.req) ->
      if r.kind <> Traffic.Bad then
        Checks.check checks (Hashtbl.mem by_id r.id) (Printf.sprintf "serve: request %d not logged" r.id))
    reqs;
  (* Request spans, joined by id to the daemon's log record. *)
  List.iter
    (fun (parent, answers) ->
      List.iter
        (fun a ->
          let joined =
            match Hashtbl.find_opt by_id a.req.Traffic.id with
            | Some l ->
                [ ("cache", l.l_cache); ("queue_wait_ms", Printf.sprintf "%.3f" l.l_queue_ms);
                  ("run_ms", Printf.sprintf "%.3f" l.l_run_ms) ]
            | None -> []
          in
          Spans.record ~parent ~req:a.req.Traffic.id ~attrs:(("spec", a.req.Traffic.line) :: joined) "serve.request"
            ~start:a.sent ~stop:a.recv)
        answers)
    phases;
  (* One repetition's cold requests are too few for a p80; the traced run
     checks the rule on the samples it pools (see {!traced_reps}). *)
  let n_warm = List.length (List.filter (fun a -> (not a.req.Traffic.cold) && a.req.Traffic.kind <> Traffic.Bad) answers) in
  Checks.check checks (Stats.supports ~n:n_warm 95.0) "serve: too few warm samples for p95";
  (* Every simulated or predicted result, in a seed-independent order. *)
  let dg = Digest.create () in
  answers
  |> List.filter_map (fun a ->
         let q = a.req in
         if q.Traffic.cold then
           Option.map (fun o -> ((q.Traffic.app, q.Traffic.protocol, q.Traffic.block, q.Traffic.kind = Traffic.Predict), o))
             (result_object a.line)
         else None)
  |> List.sort compare
  |> List.iter (fun (_, o) -> Digest.string dg o);
  {
    answers;
    log;
    by_id;
    wall_s = span answers;
    units;
    setup_s = d.ready -. d.spawned;
    rss_kb;
    checks;
    digest = Digest.hex dg;
    valid_ok;
  }

(* Repetitions of a traced run, whose latency and daemon-log figures pool
   them: 4 x 14 cold requests carry a p80 with ten samples beyond it. *)
let traced_reps = 4

(* Set-up only: spawn a daemon, wait until it accepts, stop it. *)
let setup_sample ~repro ~dir ~clients =
  let d = spawn ~repro ~dir ~tag:"setup" ~pool:(pool_jobs ~clients) () in
  ignore (with_daemon d stop);
  d.ready -. d.spawned

(* The --slow-ms capture path, run once per benchmark run on a daemon of
   its own.  No fixed threshold splits the measured daemon's cold sims the
   same way on every run: on a 2-vCPU VM cold sims run 0.15-1 s and move
   with host speed, and each capture (a Timecap re-run plus a held
   timeline) moves wall time and RSS.  Here --slow-ms 1 sits far below
   every sim, so each probe sim is flagged and captured on any host.  A
   capture runs after its reply is sent, so the timeline is polled until
   the ring holds every capture. *)
let probe ~repro ~dir ~clients expected =
  let checks = Checks.create () in
  let log = Filename.concat dir "probe-log.jsonl" in
  (try Sys.remove log with Sys_error _ -> ());
  let reqs = Traffic.probe and n = List.length Traffic.probe in
  let d = spawn ~repro ~dir ~tag:"probe" ~pool:(pool_jobs ~clients) ~log ~slow_ms:Traffic.probe_slow_ms () in
  let answers, timeline, code =
    with_daemon d (fun d ->
        let conns = List.init clients (fun _ -> connect d.sock) in
        let answers = Spans.with_span "serve.capture_probe" (fun _ -> run_phase conns reqs) in
        let c0 = List.hd conns in
        let deadline = now () +. 60.0 in
        let rec poll id =
          send c0 (Traffic.timeline_line ~id);
          let t = read_line c0 in
          if List.length (exact_flags t) >= n || now () > deadline then t
          else begin
            Unix.sleepf 0.05;
            poll (id + 1)
          end
        in
        let timeline = poll (n + 1) in
        List.iter (fun c -> Unix.close c.fd) conns;
        (answers, timeline, stop d))
  in
  Checks.check checks (code = Some 0) "probe: drain did not exit 0";
  List.iter (fun a -> ignore (check_answer checks expected a)) answers;
  Checks.check checks (List.length answers = n) "probe: a request went unanswered";
  let slow =
    List.filter_map (fun (id, l) -> if l.l_slow then id else None) (parse_log log) |> List.sort compare
  in
  Checks.check checks (slow = List.map (fun (r : Traffic.req) -> r.id) reqs) "probe: not every sim was flagged slow";
  let exacts = exact_flags timeline in
  Checks.check checks
    (str_field timeline "status" = Some "ok" && List.length exacts = n && List.for_all Fun.id exacts)
    (Printf.sprintf "probe: %d captures, want %d, all exact" (List.length exacts) n);
  (checks, List.length exacts)
