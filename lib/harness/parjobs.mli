(** Deterministic multicore fan-out for independent experiment versions.

    [map ?jobs f xs] applies [f] to every element of [xs] on up to [jobs]
    OCaml domains (default {!default_jobs}), the calling domain included:
    it spawns [jobs - 1] helper domains and computes alongside them.  The
    results come back in input order; if any call failed, the first failure
    by input order is re-raised, with its worker backtrace, once every call
    has finished.  Each call of [f] must be self-contained: the experiment
    drivers qualify because every simulated version builds its own private
    machine.

    Falls back to a plain sequential [List.map] when [jobs <= 1], when there
    is at most one element, or when a process-global trace sink
    ({!Ccdsm_tempest.Trace.set_global}) or metrics registry
    ({!Ccdsm_obs.Obs.set_global}) is installed — both serialize so the JSONL
    byte stream and the metrics snapshot stay the single-threaded ones. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

val observed : unit -> bool
(** Whether a process-global trace sink or metrics registry is installed:
    the test behind [map]'s sequential fallback, and the one {!Cell.measure}
    uses to bypass its memo. *)

val default_jobs : unit -> int
(** [CCDSM_JOBS] when set (validated), otherwise
    [Domain.recommended_domain_count ()]. *)

val env_jobs : unit -> int option
(** Just the [CCDSM_JOBS] override, if any.
    @raise Invalid_argument on a non-integer, non-positive, or absurd value
    (above {!max_jobs}) — the CLI turns this into its exit-124 startup
    diagnostic. *)

val max_jobs : unit -> int
(** The sanity cap shared by [CCDSM_JOBS] and [--jobs]:
    [Domain.recommended_domain_count () * 4]. *)

val validate_jobs : what:string -> int -> int
(** Return [n] unchanged if it is in [[1, max_jobs ()]];
    @raise Invalid_argument (naming [what]) otherwise. *)
