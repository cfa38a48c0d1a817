(** A persistent pool of OCaml 5 domains serving one shared job queue.

    Workers are spawned once ({!create}), take jobs from the queue, and
    survive across submissions until {!shutdown}.  The serving layer
    ([Ccdsm_serve]) keeps one alive for the life of the process.

    Jobs must be self-contained (no shared mutable state between jobs) —
    the callers own that argument.
    Every job outcome is captured per job: a raising job never kills a
    worker, and the exception is re-raised at the awaiting caller with the
    worker-side backtrace intact. *)

type t

type 'a ticket
(** A handle to one submitted job's eventual outcome. *)

val create : ?domains:int -> unit -> t
(** Spawn [domains] worker domains (default
    [Domain.recommended_domain_count ()]).
    @raise Invalid_argument when [domains < 1]. *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> (unit -> 'a) -> 'a ticket
(** Enqueue a job.  @raise Invalid_argument after {!shutdown}. *)

val await : 'a ticket -> ('a, exn * Printexc.raw_backtrace) result
(** Block until the job finished; never raises. *)

val await_exn : 'a ticket -> 'a
(** Block until the job finished; re-raises its exception (with the worker
    backtrace) on failure. *)

val shutdown : t -> unit
(** Graceful shutdown: refuse new submissions, drain every queued job, join
    the workers.  Idempotent. *)
