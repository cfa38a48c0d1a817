(** From a validated {!Job.spec} to a deterministic result record.

    Simulation jobs run through the differential harness with a single
    protocol ({!Ccdsm_harness.Proto_diff.run}), which is exactly what
    [repro sweep] does per cell — so a serve result is byte-comparable with
    a direct sweep of the same configuration.  Predict jobs answer from the
    first-touch replay model ({!Ccdsm_rdist.Model}) instead: the daemon
    keeps one profile per (app, nodes, scale), collected by a single
    instrumented baseline run the first time it is needed, compiles it to a
    {!Ccdsm_rdist.Model.predictor} and evaluates every block size job
    validation admits up front — so a warm what-if is answered from a
    precomputed table in well under ten milliseconds end-to-end.  Name
    resolution ([prepare]) is split from execution ([execute]) so the
    daemon can reject an unknown app or protocol with a structured per-job
    error {e before} the job ever reaches the pool. *)

type app = string * bool * (Ccdsm_runtime.Runtime.t -> float)
(** [(name, check_races, run)] — the {!Ccdsm_harness.Experiments.sweep_apps}
    row shape.  Tests inject tiny synthetic apps through this. *)

type prepared

type t
(** One server's runner state: the predict profile and grid tables and the
    slow-job ring.  Each {!Server.start} makes its own. *)

val create : unit -> t

val prepare : ?apps:app list -> Job.spec -> (prepared, string) result
(** Resolve the app (case-insensitive, against [apps] or the built-in
    {!Ccdsm_harness.Experiments.sweep_apps} table at the spec's scale) and
    the protocol.  Simulation jobs resolve through
    {!Ccdsm_runtime.Runtime.protocol_of_name} (whose error lists every
    registered name — the same diagnostic the CLI exits 124 with); predict
    jobs additionally require the protocol to be covered by
    {!Ccdsm_rdist.Model.protocol_of_name} and reject fault plans. *)

val execute : t -> prepared -> string
(** Run the job and render the result record, a one-line JSON object with
    sorted keys.  Simulations: app, block_bytes, bytes, checksum, digest,
    latency (the paper-bucket wall-clock decomposition, mean over nodes),
    msgs, nodes, protocol, remote_misses, total_us — floats via
    {!Ccdsm_obs.Obs.float_to_string}.  Predictions: app, block_bytes,
    bytes, faults, kind, msgs, nodes, presends, protocol — integers only.
    Byte-identical for identical specs regardless of which pool domain runs
    it.
    @raise Ccdsm_proto.Sanitizer.Violation (and whatever the app raises) —
    the caller turns exceptions into per-job error records. *)

val result_json : Ccdsm_harness.Proto_diff.report -> string
(** The simulation rendering on its own (the report must have exactly one
    row). *)

val profile_count : t -> int
(** Number of first-touch profiles [t] holds for predict jobs (exported as
    a gauge on the daemon's [/metrics]). *)

(** {2 Slow-job timeline ring}

    Collecting span timelines on the hot path would tax every job for the
    benefit of the slow few, so the daemon instead re-runs a job flagged by
    [--slow-ms] — the simulation is deterministic, so the re-run is the
    run — with the {!Ccdsm_tempest.Timecap} collector attached, and parks
    the captured timeline in a bounded newest-first ring.  The re-run's
    runtime is {!Ccdsm_harness.Proto_diff.create_runtime}, the one the
    served run used. *)

val record_slow : t -> key:string -> run_ms:float -> prepared -> unit
(** Capture a timeline for a slow sim job (predict jobs are table lookups
    and are ignored) and render its ring entry.  An entry with the same key
    is replaced; otherwise the oldest entry is evicted at the ring's
    capacity of 8, which holds the current outliers and bounds daemon
    memory. *)

val slow_jobs : t -> string list
(** The rendered ring entries, newest first, each one JSON object with
    sorted keys: exact (the collector's residual check came back empty),
    key, run_ms (the original, not re-run, wall-clock cost), spans, spec
    (the canonical spec object), timeline and wall_us (the captured run's
    simulated wall clock).  The timeline is the JSONL text as one escaped
    string, ready to save and feed to [repro timeline].  The daemon's
    [{"kind":"timeline"}] reply carries them as [{"slow_jobs":[...]}]. *)
