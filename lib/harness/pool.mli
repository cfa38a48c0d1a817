(** A persistent work-stealing pool of OCaml 5 domains.

    The generalization of the harness's fan-out-and-join: workers are
    spawned once ({!create}), steal jobs from a shared deque, and survive
    across submissions until {!shutdown}.  {!Parjobs.map} runs on a
    transient pool; the serving layer ([Ccdsm_serve]) keeps one alive for
    the life of the process.

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

val pending : t -> int
(** Jobs queued and not yet picked up by a worker. *)

val submit : t -> (unit -> 'a) -> 'a ticket
(** Enqueue a job.  @raise Invalid_argument after {!shutdown}. *)

val await : 'a ticket -> ('a, exn * Printexc.raw_backtrace) result
(** Block until the job finished; never raises. *)

val await_exn : 'a ticket -> 'a
(** Block until the job finished; re-raises its exception (with the worker
    backtrace) on failure. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Fan-out-and-join on the pool: results in input order; on failure the
    first failed input's exception (by input order, scheduling-independent)
    is re-raised after all jobs resolved. *)

val shutdown : t -> unit
(** Graceful shutdown: refuse new submissions, drain every queued job, join
    the workers.  Idempotent. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)
