(** Reproduction drivers: one entry per table/figure of the paper, plus the
    section-5.4 block-size sweep and design ablations (see DESIGN.md for the
    experiment index and EXPERIMENTS.md for recorded outcomes). *)

type scale = Cell.scale = Paper | Scaled  (** {!Cell.scale}, re-exported *)

val scale_of_env : unit -> scale
(** [Paper] when CCDSM_FULL is set to a non-empty, non-"0" value. *)

type figure = {
  id : string;
  title : string;
  rows : Measure.measurement list;
  notes : string list;  (** expected shape, from the paper *)
}

val render : figure -> string
(** Stacked bars (relative execution time, split into the paper's three
    sections) followed by a counter table. *)

val table1 : scale -> string
(** The benchmark-description table. *)

val fig4 : unit -> string
(** Compiler report for the Barnes-Hut skeleton: access summaries, reaching
    facts, directive placement (the paper's Figure 4). *)

(** The figure drivers below measure their independent (version x block-size)
    simulations on OCaml 5 domains via {!Parjobs.map} — up to [jobs] at a
    time (default {!Parjobs.default_jobs}: [CCDSM_JOBS] or the available
    cores), joined in fixed input order so the rendered output is
    byte-identical at any job count.  fig5, fig6, fig7, {!block_sweep},
    {!ablations} and {!scaling} measure through {!Cell.measure}, so a cell
    that one of them has measured is not simulated again in the same
    process. *)

val fig5 : ?num_nodes:int -> ?jobs:int -> scale -> figure
(** Adaptive: unoptimized and optimized at 32- and 256-byte blocks. *)

val fig6 : ?num_nodes:int -> ?jobs:int -> scale -> figure
(** Barnes: unopt/opt at 32- and 1024-byte blocks plus hand-optimized SPMD
    (write-update) at 1024. *)

val fig7 : ?num_nodes:int -> ?jobs:int -> scale -> figure
(** Water: unoptimized, optimized and Splash, each at its best block size
    (chosen by sweeping, as the paper did). *)

val block_sweep : ?num_nodes:int -> ?jobs:int -> ?quick:bool -> scale -> string
(** Section 5.4: total time for each application, unoptimized vs optimized,
    across block sizes 32..1024 — "the predictive protocol worked best for
    small cache blocks".  [quick] (default false) keeps only the 32- and
    256-byte columns (the CI smoke grid). *)

val sweep_apps : scale -> (string * bool * (Ccdsm_runtime.Runtime.t -> float)) list
(** The apps behind {!protocol_sweep} and the serving layer's job runner:
    [(display name, check_races, run)] for Adaptive, Barnes and Water, with
    [run] from {!Cell.run} at the given scale.  [check_races] is false only for Barnes, whose
    tree build is a legitimate multi-writer phase. *)

val protocol_sweep :
  ?num_nodes:int ->
  ?jobs:int ->
  ?quick:bool ->
  ?migratory_threshold:int ->
  protocols:Ccdsm_runtime.Runtime.protocol list ->
  scale ->
  Proto_diff.report list * string
(** Registry-driven sweep ([repro sweep --protocol NAME,…]): every given
    protocol × app × block size, sanitizer attached, via the differential
    harness — per-cell heap digests must agree across protocols.  Returns
    the raw reports (the CI artifact) alongside the rendered table.
    [quick] (default false) shrinks the grid to two block sizes and drops
    Barnes — the CI smoke configuration.  [migratory_threshold] (default 1)
    feeds the migratory protocol's option record. *)

val ablations : ?num_nodes:int -> ?jobs:int -> scale -> string
(** Design ablations: presend bulk coalescing on/off; incremental schedules
    vs flush-every-iteration; CM-5-class vs hardware-DSM network (the
    section 5.4 latency-tradeoff discussion); no conflict action vs the
    first-stable extension.  All ten versions go out in one fan-out. *)

val inspector : scale -> string
(** Section 2 comparison: the predictive protocol vs. a CHAOS-style
    inspector-executor on an irregular gather kernel whose indirection
    pattern is static, incrementally evolving, or rewritten wholesale. *)

val fault_plan : float -> Ccdsm_tempest.Faults.plan
(** The grid's plan at one rate: drop = corrupt = rate, dup = delay = rate/2,
    seed 42 (exposed for the CI smoke run and tests). *)

val faults_grid :
  ?num_nodes:int ->
  ?jobs:int ->
  ?protocols:Ccdsm_runtime.Runtime.protocol list ->
  scale ->
  string
(** Robustness extension: Adaptive/Barnes/Water with injected message
    loss/duplication/delay and schedule corruption (seed 42), sanitizer
    attached.  The predictive protocol runs the full rate ladder (0, 1%, 5%,
    20%); the other default protocols (migratory, commutative — override
    with [protocols]) run at 0 and 5% to cover handoff and merge recovery.
    Reports recovery counters (retries, timeouts, presend fallbacks) and the
    slowdown relative to the same protocol's fault-free row; checksums must
    match the fault-free run. *)

val default_scaling_nodes : int list
(** [[4; 8; 16; 32; 48]] — the machine sizes [repro all] reports. *)

val scaling : ?jobs:int -> ?nodes:int list -> scale -> string
(** Extension beyond the paper: total time and optimized speedup as the
    machine grows (Water, 32-byte blocks).  [nodes] (default
    {!default_scaling_nodes}) may range up to
    [Ccdsm_util.Nodeset.max_nodes] = 1024; [Invalid_argument] otherwise. *)

val check_shapes : fig5:figure -> fig6:figure -> fig7:figure -> (string * bool) list
(** Evaluate the paper's qualitative claims against measured figures
    (used by the test suite and EXPERIMENTS.md): e.g. "optimized Adaptive
    >= 1.2x over best unoptimized", "Barnes unopt(1024) within 15% of
    opt(1024)", "optimized Water beats Splash". *)
