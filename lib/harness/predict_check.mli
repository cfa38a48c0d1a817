(** Cross-validation of the first-touch replay predictor.

    One instrumented run per app x protocol collects a {!Ccdsm_rdist.Profile}
    at the base block size; {!Ccdsm_rdist.Model.predict} then predicts every
    point of the block-size grid and each prediction is checked against a
    full simulation of that point.  The checks are tolerance bands per
    metric (demand misses, presend share, traffic, predicted wall clock and
    its remote-wait/presend buckets) plus exact agreement where the theory
    demands it: at the profiled block size (integer counters, bit-for-bit
    bucket times) and, at every block size, each segment's fault count.

    The [fudge_faults] and [fudge_wait_us] knobs deliberately corrupt the
    model (every segment's predicted read faults, or predicted remote-wait
    time, shifted by a constant): the harness must fail on either, which is
    the negative test proving the bands have teeth. *)

module Runtime = Ccdsm_runtime.Runtime
module Profile = Ccdsm_rdist.Profile
module Model = Ccdsm_rdist.Model

type app = { app_name : string; app_nodes : int; app_run : Runtime.t -> unit }

val apps : unit -> app list
(** The validation workloads: the golden-trace Jacobi stencil (4 nodes), a
    small structured-adaptive-mesh run and a small Barnes-Hut run (8 nodes
    each). *)

val collect_profile : app -> block_bytes:int -> protocol:Model.protocol -> Profile.t
(** Run [app] once on a fresh machine under [protocol] with the collector
    attached (presend grants sampled when the protocol is predictive). *)

type cell = {
  c_app : string;
  c_protocol : string;
  c_block : int;
  pred_faults : int;
  act_faults : int;
  pred_presends : int;
  act_presends : int;
  pred_msgs : int;
  act_msgs : int;
  pred_bytes : int;
  act_bytes : int;
  pred_wall : float;  (** predicted wall clock, microseconds *)
  act_wall : float;
  cell_errors : string list;  (** band/exactness violations; empty = clean *)
}

type report = { cells : cell list; pass : bool; text : string }

val validate : ?quick:bool -> ?fudge_faults:int -> ?fudge_wait_us:float -> unit -> report
(** Run the full cross-validation.  [quick] shrinks the grid to the CI
    smoke sizes (32B and 256B).  [fudge_faults] (default 0) and
    [fudge_wait_us] (default 0.0) perturb the model for the negative tests —
    any materially non-zero value must produce [pass = false]. *)
