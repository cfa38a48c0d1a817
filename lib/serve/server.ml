(* The serve daemon: newline-delimited JSON job specs in, result records out,
   streamed as they complete.

   Thread/domain layout:
     - one accept thread per listener (job socket, optional HTTP endpoint),
       each looping on [Unix.select] with a short timeout so shutdown never
       depends on waking a blocked [accept];
     - one reader thread per job connection, parsing spec lines and doing
       cache lookups;
     - the persistent [Pool] of domains running simulations;
     - an optional timeout-monitor thread scanning the deadline table.

   A response line is written by whichever thread completes the job — the
   reader (parse error, cache hit, rejection) or a pool domain (miss, join,
   timeout) — under the connection's write mutex, so results stream in
   completion order, not submission order.  Clients correlate by [id].

   Jobs never touch the process-global Obs/Trace sinks ([Measure.measure]
   swaps the global registry, which is not safe across concurrent pool
   workers); the daemon's own metrics live in a private mutex-guarded
   registry exported on [/metrics]. *)

module Json = Ccdsm_util.Json
module Pool = Ccdsm_harness.Pool
module Obs = Ccdsm_obs.Obs
module Export = Ccdsm_obs.Export

type outcome = Result of string | Job_error of string | Timeout

type config = {
  socket : [ `Unix of string | `Tcp of string * int ];
  http_port : int option;
  domains : int;
  max_pending : int;
  timeout_ms : float option;
  log : string option;
  slow_ms : float;
  apps : Runner.app list option;
}

let default_config ~socket () =
  {
    socket;
    http_port = None;
    domains = Domain.recommended_domain_count ();
    max_pending = 256;
    timeout_ms = None;
    log = None;
    slow_ms = 0.0;
    apps = None;
  }

type conn = {
  fd : Unix.file_descr;
  wmutex : Mutex.t;
  mutable alive : bool;
  mutable reader : Thread.t option;
}

type t = {
  cfg : config;
  runner : Runner.t;
  pool : Pool.t;
  cache : outcome Cache.t;
  admitted : int Atomic.t;  (* jobs admitted and not yet finished/abandoned *)
  stopping : bool Atomic.t;
  monitor_stop : bool Atomic.t;
  listen_fd : Unix.file_descr;
  http_fd : Unix.file_descr option;
  http_port : int option;
  conns_mutex : Mutex.t;
  mutable conns : conn list;
  mutable accept_threads : Thread.t list;
  mutable monitor : Thread.t option;
  mutable stopped : bool;
  deadlines_mutex : Mutex.t;
  deadlines : (string, float) Hashtbl.t;
  (* Request log: one JSONL record per answered request, written (and
     flushed, so a tail is always live) under its own mutex. *)
  log_mutex : Mutex.t;
  log_oc : out_channel option;
  (* Metrics: a private registry; Obs instruments are not thread-safe on
     their own, so every update and snapshot holds [mm]. *)
  mm : Mutex.t;
  registry : Obs.Registry.t;
  req_ok : Obs.Counter.t;
  req_error : Obs.Counter.t;
  req_rejected : Obs.Counter.t;
  req_timeout : Obs.Counter.t;
  cache_hit : Obs.Counter.t;
  cache_miss : Obs.Counter.t;
  cache_join : Obs.Counter.t;
  slow_jobs : Obs.Counter.t;
  slow_capture_failures : Obs.Counter.t;
  predict_jobs : Obs.Counter.t;
  predict_profiles : Obs.Gauge.t;
  abandoned : Obs.Counter.t;
  connections : Obs.Counter.t;
  io_reply : Obs.Counter.t;
  io_reader : Obs.Counter.t;
  io_http : Obs.Counter.t;
  io_log : Obs.Counter.t;
  queue_depth : Obs.Gauge.t;
  job_ms : Obs.Histogram.t;
}

let tick t f = Mutex.protect t.mm f

(* -- wire helpers --------------------------------------------------------- *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write fd b !off (n - !off) in
    if w <= 0 then raise Exit;
    off := !off + w
  done

(* A failed socket read or write, or request-log write: the connection (or
   HTTP request, or log record) is given up, the failure counted on
   [ccdsm_serve_io_errors_total] by [site] and logged as one stderr line. *)
let io_error t site e =
  let ctr, name =
    match site with
    | `Reply -> (t.io_reply, "reply")
    | `Reader -> (t.io_reader, "reader")
    | `Http -> (t.io_http, "http")
    | `Log -> (t.io_log, "log")
  in
  tick t (fun () -> Obs.Counter.inc ctr);
  prerr_endline
    (Printf.sprintf "{\"error\":%s,\"event\":\"io_error\",\"site\":\"%s\"}"
       (Json.quote (Printexc.to_string e))
       name)

(* One reply, written as [parts] in order under the connection's write
   mutex: a reply built from large parts goes out without first being
   copied into one string.  The first failed write marks the connection
   dead, so later replies to it are dropped without another count. *)
let write_parts t conn parts =
  Mutex.lock conn.wmutex;
  let failed =
    if not conn.alive then None
    else
      match List.iter (write_all conn.fd) parts with
      | () -> None
      | exception e ->
          conn.alive <- false;
          Some e
  in
  Mutex.unlock conn.wmutex;
  Option.iter (io_error t `Reply) failed

let write_line t conn line = write_parts t conn [ line ^ "\n" ]

let id_lit = function Some s -> s | None -> "null"

let status_of = function Result _ -> "ok" | Job_error _ -> "error" | Timeout -> "timeout"

(* A failed write is counted, not raised: the mutex is released on every
   path, so the reader or pool thread that logged carries on. *)
let log_line t oc line =
  try
    Mutex.protect t.log_mutex (fun () ->
        output_string oc line;
        output_char oc '\n';
        flush oc)
  with e -> io_error t `Log e

let log_job t ~id ~key ~cache ~queue_wait_us ~run_us ~slow status =
  match t.log_oc with
  | None -> ()
  | Some oc ->
      log_line t oc
        (Printf.sprintf
           "{\"cache\":%s,\"id\":%s,\"key\":%s,\"queue_wait_us\":%s,\"run_us\":%s,\"slow\":%b,\"status\":%s}"
           (Json.quote cache) (id_lit id)
           (match key with None -> "null" | Some k -> "\"" ^ k ^ "\"")
           (Obs.float_to_string queue_wait_us)
           (Obs.float_to_string run_us) slow (Json.quote status))

(* The slow-job capture re-run raised.  Its job was already answered, so the
   failure is counted and logged (to stderr without a request log) instead
   of reaching a client. *)
let capture_failed t ~key e =
  tick t (fun () -> Obs.Counter.inc t.slow_capture_failures);
  let line =
    Printf.sprintf "{\"error\":%s,\"event\":\"slow_capture_failed\",\"key\":%s}"
      (Json.quote (Printexc.to_string e))
      (Json.quote key)
  in
  match t.log_oc with Some oc -> log_line t oc line | None -> prerr_endline line

let render ~id ~key ~kind outcome =
  match outcome with
  | Result json ->
      Printf.sprintf "{\"id\":%s,\"status\":\"ok\",\"cache\":\"%s\",\"key\":\"%s\",\"result\":%s}"
        (id_lit id) kind key json
  | Job_error msg ->
      Printf.sprintf "{\"id\":%s,\"status\":\"error\",\"cache\":\"%s\",\"key\":\"%s\",\"error\":%s}"
        (id_lit id) kind key (Json.quote msg)
  | Timeout ->
      Printf.sprintf "{\"id\":%s,\"status\":\"timeout\",\"key\":\"%s\",\"error\":\"job timed out\"}"
        (id_lit id) key

(* Every reply starts [{"id":ID,"status":"...], and ID is a scalar JSON
   literal ({!Job.parse}); a quoted one escapes each of its quotes, so the
   first ["status":"] in a reply is its own status key. *)
let reply_status line =
  let key = {|"status":"|} in
  let n = String.length line and m = String.length key in
  let rec matches i k = k = m || (line.[i + k] = key.[k] && matches i (k + 1)) in
  let rec find i = if i + m > n then None else if matches i 0 then Some (i + m) else find (i + 1) in
  Option.bind (find 0) (fun j ->
      Option.map (fun k -> String.sub line j (k - j)) (String.index_from_opt line j '"'))

let send t conn ~id ~key ~kind outcome =
  tick t (fun () ->
      Obs.Counter.inc
        (match outcome with
        | Result _ -> t.req_ok
        | Job_error _ -> t.req_error
        | Timeout -> t.req_timeout));
  write_line t conn (render ~id ~key ~kind outcome)

let send_spec_error t conn ~id msg =
  tick t (fun () -> Obs.Counter.inc t.req_error);
  write_line t conn
    (Printf.sprintf "{\"id\":%s,\"status\":\"error\",\"error\":%s}" (id_lit id)
       (Json.quote msg))

let send_rejected t conn ~id ~key =
  tick t (fun () -> Obs.Counter.inc t.req_rejected);
  write_line t conn
    (Printf.sprintf
       "{\"id\":%s,\"status\":\"rejected\",\"key\":\"%s\",\"error\":\"queue full (max_pending=%d)\"}"
       (id_lit id) key t.cfg.max_pending)

(* -- deadline table ------------------------------------------------------- *)

let set_deadline t key =
  match t.cfg.timeout_ms with
  | None -> ()
  | Some ms ->
      Mutex.lock t.deadlines_mutex;
      Hashtbl.replace t.deadlines key (Unix.gettimeofday () +. (ms /. 1000.));
      Mutex.unlock t.deadlines_mutex

let clear_deadline t key =
  Mutex.lock t.deadlines_mutex;
  Hashtbl.remove t.deadlines key;
  Mutex.unlock t.deadlines_mutex

let deadline_passed t key =
  Mutex.lock t.deadlines_mutex;
  let passed =
    match Hashtbl.find_opt t.deadlines key with
    | Some d -> Unix.gettimeofday () >= d
    | None -> (
        (* With a timeout configured, a missing entry means the monitor
           already expired (and cancelled) this job. *)
        match t.cfg.timeout_ms with Some _ -> true | None -> false)
  in
  Mutex.unlock t.deadlines_mutex;
  passed

let monitor_loop t =
  while not (Atomic.get t.monitor_stop) do
    let now = Unix.gettimeofday () in
    Mutex.lock t.deadlines_mutex;
    let overdue =
      Hashtbl.fold (fun key d acc -> if now >= d then key :: acc else acc) t.deadlines []
    in
    List.iter (Hashtbl.remove t.deadlines) overdue;
    Mutex.unlock t.deadlines_mutex;
    List.iter (fun key -> ignore (Cache.cancel t.cache ~key Timeout)) overdue;
    Thread.delay 0.02
  done

(* -- request handling ----------------------------------------------------- *)

let handle_line t conn line =
  let line = String.trim line in
  if line = "" then ()
  else
    match Job.parse line with
    | Error msg ->
        send_spec_error t conn ~id:None msg;
        log_job t ~id:None ~key:None ~cache:"none" ~queue_wait_us:0.0 ~run_us:0.0 ~slow:false
          "error"
    | Ok { id; spec } when spec.Job.kind = `Timeline ->
        (* A state query, not a simulation: answered inline from the slow
           ring, never queued or cached. *)
        tick t (fun () -> Obs.Counter.inc t.req_ok);
        let entries =
          List.mapi (fun i e -> if i = 0 then [ e ] else [ ","; e ]) (Runner.slow_jobs t.runner)
        in
        write_parts t conn
          ((Printf.sprintf {|{"id":%s,"status":"ok","result":{"slow_jobs":[|} (id_lit id)
           :: List.concat entries)
          @ [ "]}}\n" ]);
        log_job t ~id ~key:None ~cache:"timeline" ~queue_wait_us:0.0 ~run_us:0.0 ~slow:false
          "ok"
    | Ok { id; spec } -> (
        let t_arrive = Unix.gettimeofday () in
        if spec.Job.kind = `Predict then tick t (fun () -> Obs.Counter.inc t.predict_jobs);
        match Runner.prepare ?apps:t.cfg.apps spec with
        | Error msg ->
            send_spec_error t conn ~id msg;
            log_job t ~id ~key:None ~cache:"none" ~queue_wait_us:0.0 ~run_us:0.0 ~slow:false
              "error"
        | Ok prepared -> (
            let key = Job.key spec in
            let kind = ref "join" in
            (* Timings for the log record: the computing job fills these in
               before [finish]; a joiner only knows how long it waited. *)
            let queue_us = ref 0.0 and run_us = ref 0.0 and slow = ref false in
            let deliver outcome =
              send t conn ~id ~key ~kind:!kind outcome;
              let queue_wait_us =
                if !kind = "join" then (Unix.gettimeofday () -. t_arrive) *. 1e6
                else !queue_us
              in
              log_job t ~id ~key:(Some key) ~cache:!kind ~queue_wait_us ~run_us:!run_us
                ~slow:!slow (status_of outcome)
            in
            let admit () =
              if Atomic.get t.admitted >= t.cfg.max_pending then false
              else begin
                Atomic.incr t.admitted;
                true
              end
            in
            match Cache.lookup t.cache ~key ~admit ~deliver () with
            | Cache.Hit v ->
                tick t (fun () -> Obs.Counter.inc t.cache_hit);
                send t conn ~id ~key ~kind:"hit" v;
                log_job t ~id ~key:(Some key) ~cache:"hit" ~queue_wait_us:0.0 ~run_us:0.0
                  ~slow:false (status_of v)
            | Cache.Joined -> tick t (fun () -> Obs.Counter.inc t.cache_join)
            | Cache.Rejected ->
                send_rejected t conn ~id ~key;
                log_job t ~id ~key:(Some key) ~cache:"none" ~queue_wait_us:0.0 ~run_us:0.0
                  ~slow:false "rejected"
            | Cache.Compute finish -> (
                tick t (fun () -> Obs.Counter.inc t.cache_miss);
                kind := "miss";
                set_deadline t key;
                let t_submit = Unix.gettimeofday () in
                let job () =
                  if deadline_passed t key then begin
                    clear_deadline t key;
                    ignore (Cache.cancel t.cache ~key Timeout)
                  end
                  else begin
                    let t0 = Unix.gettimeofday () in
                    queue_us := (t0 -. t_submit) *. 1e6;
                    let outcome =
                      try Result (Runner.execute t.runner prepared)
                      with e -> Job_error (Printexc.to_string e)
                    in
                    let dt_ms = (Unix.gettimeofday () -. t0) *. 1000. in
                    run_us := dt_ms *. 1000.;
                    tick t (fun () -> Obs.Histogram.observe t.job_ms dt_ms);
                    let is_slow =
                      t.cfg.slow_ms > 0. && dt_ms >= t.cfg.slow_ms
                      && match outcome with Result _ -> true | _ -> false
                    in
                    slow := is_slow;
                    if is_slow then tick t (fun () -> Obs.Counter.inc t.slow_jobs);
                    clear_deadline t key;
                    if not (finish outcome) then
                      (* Cancelled while running: the waiters already got a
                         timeout record; the result is discarded. *)
                      tick t (fun () -> Obs.Counter.inc t.abandoned)
                    else if is_slow then
                      (* After [finish] so waiters are not held behind the
                         capture re-run. *)
                      try Runner.record_slow t.runner ~key ~run_ms:dt_ms prepared
                      with e -> capture_failed t ~key e
                  end;
                  Atomic.decr t.admitted
                in
                try ignore (Pool.submit t.pool job)
                with Invalid_argument _ ->
                  clear_deadline t key;
                  ignore (Cache.cancel t.cache ~key (Job_error "server shutting down"));
                  Atomic.decr t.admitted)))

(* A spec line longer than this gets an error record instead of a parse;
   the reader drops its bytes up to the next newline, so one connection
   never buffers more than this. *)
let max_line_bytes = 65536

let reader_loop t conn =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  (* Inside an over-long line, discarding up to its newline. *)
  let skipping = ref false in
  (* Append chunk bytes [a, b) to the pending line, or reject a line that
     would pass the cap. *)
  let append a b =
    if not !skipping then
      if Buffer.length buf + (b - a) <= max_line_bytes then Buffer.add_subbytes buf chunk a (b - a)
      else begin
        skipping := true;
        send_spec_error t conn ~id:None
          (Printf.sprintf "spec line longer than %d bytes (skipped up to the next newline)"
             max_line_bytes);
        log_job t ~id:None ~key:None ~cache:"none" ~queue_wait_us:0.0 ~run_us:0.0 ~slow:false
          "error"
      end
  in
  (* Only the bytes just read are scanned for newlines. *)
  let consume n =
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get chunk i = '\n' then begin
        append !start i;
        if not !skipping then handle_line t conn (Buffer.contents buf);
        skipping := false;
        Buffer.clear buf;
        start := i + 1
      end
    done;
    append !start n
  in
  let rec loop () =
    if not (Atomic.get t.stopping) then
      match Unix.select [ conn.fd ] [] [] 0.1 with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              consume n;
              loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  (try loop () with e -> io_error t `Reader e);
  Mutex.lock conn.wmutex;
  conn.alive <- false;
  Mutex.unlock conn.wmutex

let accept_loop t fd handle =
  while not (Atomic.get t.stopping) do
    match Unix.select [ fd ] [] [] 0.1 with
    | [], _, _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | _ -> (
        match Unix.accept fd with
        | cfd, _ -> handle cfd
        | exception
            Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ())
  done

let handle_job_conn t cfd =
  tick t (fun () -> Obs.Counter.inc t.connections);
  let conn = { fd = cfd; wmutex = Mutex.create (); alive = true; reader = None } in
  Mutex.lock t.conns_mutex;
  t.conns <- conn :: t.conns;
  Mutex.unlock t.conns_mutex;
  conn.reader <- Some (Thread.create (fun () -> reader_loop t conn) ())

(* -- HTTP endpoint (/metrics, /healthz) ----------------------------------- *)

(* Nothing here waits on the runner: [Runner.profile_count] is an atomic
   read, so a scrape never stalls behind a cold profile collection. *)
let metrics_text t =
  Mutex.protect t.mm (fun () ->
      Obs.Gauge.set t.queue_depth (float_of_int (Atomic.get t.admitted));
      Obs.Gauge.set t.predict_profiles (float_of_int (Runner.profile_count t.runner));
      Export.prometheus t.registry)

let handle_http t cfd =
  (try
     let buf = Bytes.create 4096 in
     let n = Unix.read cfd buf 0 (Bytes.length buf) in
     let req = if n > 0 then Bytes.sub_string buf 0 n else "" in
     let path =
       match String.split_on_char ' ' (List.hd (String.split_on_char '\r' (req ^ "\r"))) with
       | _meth :: p :: _ -> p
       | _ -> "/"
     in
     let status, body =
       match path with
       | "/metrics" -> ("200 OK", metrics_text t)
       | "/healthz" -> ("200 OK", "ok\n")
       | _ -> ("404 Not Found", "not found\n")
     in
     write_all cfd
       (Printf.sprintf
          "HTTP/1.1 %s\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: \
           %d\r\nConnection: close\r\n\r\n%s"
          status (String.length body) body)
   with e -> io_error t `Http e);
  try Unix.close cfd with _ -> ()

(* -- lifecycle ------------------------------------------------------------ *)

let make_listener = function
  | `Unix path ->
      (try Unix.unlink path with _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | `Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.listen fd 64;
      fd

let bound_port fd =
  match Unix.getsockname fd with Unix.ADDR_INET (_, port) -> port | _ -> 0

let start cfg =
  if cfg.domains < 1 then invalid_arg "Server.start: domains must be >= 1";
  if cfg.max_pending < 0 then invalid_arg "Server.start: max_pending must be >= 0";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let registry = Obs.Registry.create () in
  let counter ?labels name = Obs.Registry.counter registry ?labels name in
  let listen_fd = make_listener cfg.socket in
  let http_fd = Option.map (fun port -> make_listener (`Tcp ("127.0.0.1", port))) cfg.http_port in
  let t =
    {
      cfg;
      runner = Runner.create ();
      pool = Pool.create ~domains:cfg.domains ();
      cache = Cache.create ();
      admitted = Atomic.make 0;
      stopping = Atomic.make false;
      monitor_stop = Atomic.make false;
      listen_fd;
      http_fd;
      http_port = Option.map bound_port http_fd;
      conns_mutex = Mutex.create ();
      conns = [];
      accept_threads = [];
      monitor = None;
      stopped = false;
      deadlines_mutex = Mutex.create ();
      deadlines = Hashtbl.create 64;
      log_mutex = Mutex.create ();
      log_oc =
        Option.map
          (fun path -> open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path)
          cfg.log;
      mm = Mutex.create ();
      registry;
      req_ok = counter ~labels:[ ("status", "ok") ] "ccdsm_serve_requests_total";
      req_error = counter ~labels:[ ("status", "error") ] "ccdsm_serve_requests_total";
      req_rejected = counter ~labels:[ ("status", "rejected") ] "ccdsm_serve_requests_total";
      req_timeout = counter ~labels:[ ("status", "timeout") ] "ccdsm_serve_requests_total";
      cache_hit = counter ~labels:[ ("kind", "hit") ] "ccdsm_serve_cache_total";
      cache_miss = counter ~labels:[ ("kind", "miss") ] "ccdsm_serve_cache_total";
      cache_join = counter ~labels:[ ("kind", "join") ] "ccdsm_serve_cache_total";
      slow_jobs = counter "ccdsm_serve_slow_jobs_total";
      slow_capture_failures = counter "ccdsm_serve_slow_capture_failures_total";
      predict_jobs = counter "ccdsm_serve_predict_jobs_total";
      predict_profiles = Obs.Registry.gauge registry "ccdsm_serve_predict_profiles";
      abandoned = counter "ccdsm_serve_jobs_abandoned_total";
      connections = counter "ccdsm_serve_connections_total";
      io_reply = counter ~labels:[ ("site", "reply") ] "ccdsm_serve_io_errors_total";
      io_reader = counter ~labels:[ ("site", "reader") ] "ccdsm_serve_io_errors_total";
      io_http = counter ~labels:[ ("site", "http") ] "ccdsm_serve_io_errors_total";
      io_log = counter ~labels:[ ("site", "log") ] "ccdsm_serve_io_errors_total";
      queue_depth = Obs.Registry.gauge registry "ccdsm_serve_queue_depth";
      job_ms =
        Obs.Registry.histogram registry
          ~edges:[| 1.; 5.; 25.; 100.; 500.; 2500.; 10000. |]
          "ccdsm_serve_job_ms";
    }
  in
  Obs.Gauge.set
    (Obs.Registry.gauge registry "ccdsm_serve_pool_domains")
    (float_of_int (Pool.size t.pool));
  t.accept_threads <-
    Thread.create (fun () -> accept_loop t t.listen_fd (handle_job_conn t)) ()
    :: Option.to_list
         (Option.map (fun fd -> Thread.create (fun () -> accept_loop t fd (handle_http t)) ()) http_fd);
  if cfg.timeout_ms <> None then t.monitor <- Some (Thread.create (fun () -> monitor_loop t) ());
  t

let http_port t = t.http_port

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stopping true;
    (* Accept/reader loops poll [stopping] every 100ms; join them first so
       no new job can be submitted, then drain the admitted jobs (their
       responses are written by the pool domains before the counter drops),
       then tear the pool and the sockets down. *)
    List.iter Thread.join t.accept_threads;
    Mutex.lock t.conns_mutex;
    let conns = t.conns in
    Mutex.unlock t.conns_mutex;
    List.iter (fun c -> Option.iter Thread.join c.reader) conns;
    while Atomic.get t.admitted > 0 do
      Thread.delay 0.01
    done;
    Atomic.set t.monitor_stop true;
    Option.iter Thread.join t.monitor;
    Pool.shutdown t.pool;
    List.iter
      (fun c ->
        Mutex.lock c.wmutex;
        c.alive <- false;
        (try Unix.close c.fd with _ -> ());
        Mutex.unlock c.wmutex)
      conns;
    (try Unix.close t.listen_fd with _ -> ());
    Option.iter (fun fd -> try Unix.close fd with _ -> ()) t.http_fd;
    Option.iter close_out_noerr t.log_oc;
    match t.cfg.socket with `Unix path -> (try Unix.unlink path with _ -> ()) | `Tcp _ -> ()
  end

let run cfg =
  let t = start cfg in
  let request_stop _ = Atomic.set t.stopping true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  let addr =
    match cfg.socket with
    | `Unix path -> Printf.sprintf "unix:%s" path
    | `Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port
  in
  Printf.printf "ccdsm serve: listening on %s (%d domains, max_pending %d%s%s%s%s)\n%!" addr
    cfg.domains cfg.max_pending
    (match cfg.timeout_ms with
    | Some ms -> Printf.sprintf ", timeout %sms" (Obs.float_to_string ms)
    | None -> "")
    (if cfg.slow_ms > 0. then Printf.sprintf ", slow >= %sms" (Obs.float_to_string cfg.slow_ms)
     else "")
    (match cfg.log with Some path -> Printf.sprintf ", log %s" path | None -> "")
    (match t.http_port with Some p -> Printf.sprintf ", metrics http://127.0.0.1:%d/metrics" p | None -> "");
  while not (Atomic.get t.stopping) do
    Thread.delay 0.05
  done;
  Printf.printf "ccdsm serve: draining...\n%!";
  stop t;
  Printf.printf "ccdsm serve: drained, bye\n%!"
