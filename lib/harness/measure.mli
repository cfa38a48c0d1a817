(** Measurement of one application version on one machine configuration. *)

module Machine = Ccdsm_tempest.Machine
module Runtime = Ccdsm_runtime.Runtime
module Obs = Ccdsm_obs.Obs

type version = {
  label : string;  (** e.g. "C** optimized (32)" *)
  protocol : Runtime.protocol;
  block_bytes : int;
  net : Ccdsm_tempest.Network.t;  (** interconnect cost model *)
  coalesce : bool;  (** predictive presend bulk coalescing *)
  conflict_action : [ `Ignore | `First_stable ];  (** conflict-block presend policy *)
  run : Runtime.t -> float;  (** execute the app, return its checksum *)
}

val version :
  label:string ->
  protocol:Runtime.protocol ->
  block_bytes:int ->
  ?net:Ccdsm_tempest.Network.t ->
  ?coalesce:bool ->
  ?conflict_action:[ `Ignore | `First_stable ] ->
  (Runtime.t -> float) ->
  version
(** Smart constructor: {!Ccdsm_tempest.Network.default} and coalescing on. *)

type measurement = {
  label : string;
  total_us : float;  (** simulated wall clock (max node time) *)
  compute_us : float;  (** mean per node *)
  remote_wait_us : float;
  presend_us : float;
  synch_us : float;
  counters : Machine.counters;  (** summed over nodes *)
  metrics : Obs.snapshot;
      (** the run's metrics registry: machine counters, time buckets,
          coherence/fault statistics and (when a global registry was
          installed) every live instrument the protocol layers metered *)
  checksum : float;
  local_fraction : float;
      (** fraction of shared accesses satisfied locally without a fault — the
          paper's "number of shared-data requests satisfied locally" *)
}

val stat : ?labels:Obs.labels -> measurement -> string -> float
(** Look a metric up in [metrics] by name and exact label set; [0.0] when
    absent (a counter that never fired). *)

val protocol_name : Runtime.protocol -> string
(** ["stache"] / ["predictive"] / ["write_update"] — the [protocol] label
    value used when merging into a global registry. *)

val measure :
  ?num_nodes:int ->
  ?faults:Ccdsm_tempest.Faults.plan ->
  ?sanitize:bool ->
  ?check_races:bool ->
  ?app:string ->
  version ->
  measurement
(** Build a fresh machine (default 32 nodes, the paper's CM-5 size), run the
    version, and collect the breakdown.  [faults] installs the given fault
    plan on the machine (overriding any [CCDSM_FAULTS] environment plan; a
    zero plan removes the injector, making the run bit-identical to a
    fault-free one).  [sanitize] attaches the online invariant sanitizer.

    Metrics: the run always folds its final counters into [metrics].  When a
    process-global registry is installed ({!Ccdsm_obs.Obs.set_global}), the
    version additionally runs with a private child registry — machine,
    protocol and runtime instruments live — which is merged into the global
    one afterwards under [{version; protocol; app}] labels ([app] from the
    [?app] argument, omitted when not given). *)

val buckets : measurement -> float array
(** [[| compute+synch; presend; remote_wait |]] — the three sections of the
    paper's figures. *)

val segment_names : string list
