(** One simulated cell: an app variant at one scale on one machine
    configuration, as plain data.  The figure drivers ({!Experiments}) name
    every version they measure as a [spec] and measure it through
    {!measure}, which simulates each distinct spec once per process. *)

module Runtime = Ccdsm_runtime.Runtime

type scale =
  | Paper  (** the paper's data sets (Table 1): 128x128x100 / 16384x3 / 512x20 *)
  | Scaled  (** reduced sizes: the default, and what CI and the goldens run *)

type variant =
  | Adaptive
  | Adaptive_flush  (** Adaptive discarding its schedules every iteration *)
  | Barnes
  | Barnes_spmd  (** the hand-written SPMD version; write-update only *)
  | Water
  | Water_splash  (** the SPLASH-style version *)

type spec = {
  variant : variant;
  scale : scale;
  nodes : int;  (** simulated processors, resolved (no default left) *)
  protocol : Runtime.protocol;
  block_bytes : int;
  net : Ccdsm_tempest.Network.t;
  coalesce : bool;  (** predictive presend bulk coalescing *)
  conflict_action : [ `Ignore | `First_stable ];
}

val spec :
  ?nodes:int ->
  ?net:Ccdsm_tempest.Network.t ->
  ?coalesce:bool ->
  ?conflict_action:[ `Ignore | `First_stable ] ->
  protocol:Runtime.protocol ->
  block_bytes:int ->
  scale ->
  variant ->
  spec
(** Defaults as {!Measure.version} and {!Measure.measure}: 32 nodes (the
    paper's CM-5 size), {!Ccdsm_tempest.Network.default}, coalescing on, no
    conflict action. *)

val adaptive_cfg : scale -> Ccdsm_apps.Adaptive.config
val barnes_cfg : scale -> Ccdsm_apps.Barnes.config
val water_cfg : scale -> Ccdsm_apps.Water.config
(** The data-set sizes at each scale. *)

val run : variant -> scale -> Runtime.t -> float
(** The app table: run the variant at the scale's data set, return its
    checksum. *)

val measure : label:string -> spec -> Measure.measurement
(** {!Measure.measure} of the spec, labelled [label].  The result is kept in
    a per-process table keyed by the spec and [CCDSM_FAULTS]'s plan
    ({!Ccdsm_tempest.Faults.env_plan}, which machines read when they are
    created), so a spec measured again, by any driver, is served from the
    table under the caller's label.  While a global trace sink or metrics
    registry is installed ({!Parjobs.observed}) every call simulates and
    nothing is stored: an observed run's trace events and live metrics are
    its output.  Safe to call from several domains; two concurrent misses
    on one spec both simulate and store the same value. *)

val reset : unit -> unit
(** Empty the table.  A test hook: the next {!measure} of every spec
    simulates again. *)
