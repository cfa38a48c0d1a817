(** The [repro serve] daemon: a long-running simulation service on a
    persistent pool of OCaml 5 domains.

    Clients connect to a Unix-domain or TCP socket and write one JSON job
    spec per line ({!Job.parse}); the daemon writes one JSON result record
    per job, {e streamed in completion order} (correlate by [id]):

    {v
    {"id":1,"status":"ok","cache":"miss","key":"<fnv64>","result":{...}}
    {"id":2,"status":"error","cache":"...","key":"...","error":"..."}
    {"id":3,"status":"rejected","key":"...","error":"queue full (max_pending=N)"}
    {"id":4,"status":"timeout","key":"...","error":"job timed out"}
    {"id":5,"status":"ok","result":{"slow_jobs":[...]}}
    v}

    The last is the answer to a [{"kind":"timeline"}] query, whose entries
    are {!Runner.slow_jobs}; it is written to the socket part by part, never
    assembled into one string, since six captures make it tens of
    megabytes.

    Results are content-addressed ({!Job.key}) in a {!Cache}: an identical
    spec is computed once — later requests are [cache:"hit"], concurrent
    ones [cache:"join"].  Malformed specs and unknown app/protocol names
    produce per-job [status:"error"] records (never daemon teardown).
    Backpressure is a bounded admitted-jobs count; overflow is rejected with
    a reason.  An optional HTTP endpoint serves Prometheus [/metrics] and
    [/healthz].  SIGTERM/SIGINT drain: stop accepting, finish admitted jobs
    and deliver their responses, then exit. *)

val reply_status : string -> string option
(** The ["status"] of one reply line, read without decoding the rest of the
    line: [Some "ok"], ["error"], ["rejected"] or ["timeout"], [None] if the
    line has no status key. *)

type outcome = Result of string | Job_error of string | Timeout
(** What the cache stores per key: a rendered {!Runner.execute} record, a
    per-job error, or (never stored — only delivered on cancellation) a
    timeout. *)

type config = {
  socket : [ `Unix of string | `Tcp of string * int ];  (** job listener *)
  http_port : int option;
      (** loopback HTTP port for [/metrics] + [/healthz]; [0] picks a free
          port (read it back with {!http_port}); [None] disables *)
  domains : int;  (** pool size *)
  max_pending : int;  (** admitted-jobs bound; overflow is rejected *)
  timeout_ms : float option;  (** per-job wall-clock timeout *)
  log : string option;
      (** structured request log: one JSONL record per answered request
          (sorted keys: cache, id, key, queue_wait_us, run_us, slow,
          status), appended and flushed per record so a tail is live; a
          record that cannot be written is dropped and counted at the
          ["log"] site of [ccdsm_serve_io_errors_total] *)
  slow_ms : float;
      (** jobs whose run time reaches this are flagged [slow:true] in the
          log, counted on [ccdsm_serve_slow_jobs_total], and captured into
          the server's {!Runner.t} slow-job timeline ring (retrievable with a
          [{"kind":"timeline"}] job); [0] (the default) disables.  A
          capture re-run that raises is counted on
          [ccdsm_serve_slow_capture_failures_total] and logged as
          [{"error":...,"event":"slow_capture_failed","key":...}] (to the
          request log, else stderr) *)
  apps : Runner.app list option;  (** test override for the app table *)
}

val default_config : socket:[ `Unix of string | `Tcp of string * int ] -> unit -> config
(** Recommended domain count, [max_pending] 256, no timeout, no HTTP, no
    request log, slow-job flagging off. *)

type t

val start : config -> t
(** Bind, spawn the accept/monitor threads and the pool, make the server's
    own {!Runner.t} (predict profiles and slow-job ring are never shared
    between servers), return immediately (the in-process form the tests
    drive).
    @raise Invalid_argument on a nonsensical config;
    @raise Unix.Unix_error if a listener cannot bind. *)

val stop : t -> unit
(** Graceful drain: stop accepting and reading, wait for every admitted job
    to deliver its response, shut the pool down, close all sockets (and
    unlink a Unix socket path).  Idempotent. *)

val http_port : t -> int option
(** The bound metrics port (resolves a configured port [0]). *)

val metrics_text : t -> string
(** The Prometheus exposition served on [/metrics].  A failed socket read
    or write gives up its connection (or HTTP request), and a failed
    request-log write its record; each counts one
    [ccdsm_serve_io_errors_total] at its site (["reply"], ["reader"],
    ["http"] or ["log"]) and logs one
    [{"error":...,"event":"io_error","site":...}] line to stderr. *)

val run : config -> unit
(** [start], install SIGTERM/SIGINT handlers, block until signalled, then
    {!stop} — the CLI entry point. *)
