(** Analytical predictor: profile + block geometry -> per-phase behaviour.

    The model replays a {!Profile.t} against its own copy of the
    simulator's protocol transitions at an arbitrary block size, without
    running the application:

    - {b Layout pass}: the profile's interleaved allocation stream is
      replayed through two allocators at once — the profiled geometry (to
      reconstruct the addresses the events were recorded at, including the
      shared heap's bump arenas) and the target geometry (where arena
      refills and large-object spills may fall differently).  The result is
      an exact address map from profiled words to target words plus the
      target block homes.
    - {b Replay pass}: each segment's first-touch events run through a
      block-granular copy of the MSI engine's tag and directory
      transitions ([Engine.demand_read] / [demand_write]) and, for the
      predictive protocol, of the schedule recorder and presend scan
      ([Predictive]) — reusing the real [Schedule], so conflict handling
      is the simulator's own.

    Because within-phase access order is deterministic (node-major) and
    first-touch events are the only accesses that can change coherence
    state, the replayed fault, presend and protocol-traffic counts are
    {e exact}, not approximations — the cross-validation harness
    ([Predict_check]) holds them to integer agreement where the theory says
    so and to tight bands elsewhere.  Traffic that does not pass through
    the coherence protocol (reduction trees, barriers) is block-size
    invariant; it is carried over from the profile's actuals as a
    per-segment residual.

    Every message the replay counts and every price it charges comes from
    {!Ccdsm_proto.Cost}, the table the engine and the predictive protocol
    charge from: demand fetches and overlapped invalidations into the
    Remote_wait bucket, schedule-scan and recording costs and the presend
    flush (the very message list [Cost.flush] gives the protocol) into
    Presend.
    Predicted wall-clock bucket times are then
    [actual_base + (priced_target - priced_base)]: everything the pricing
    does not cover — compute, barrier skew, per-task overhead — rides over
    as the actual-minus-priced residual, and at the profiled geometry the
    prediction degenerates to the profiled actuals bit-for-bit.

    The transitions are a copy for speed: a replay through the real
    [Engine]/[Predictive] on a machine laid out at the target geometry
    gave the same per-segment counts on the scaled Adaptive, Barnes and
    Water profiles at every block size from 8 B to 64 KiB, but took
    1.4–2.1× as long per block size.  The copy is held to real runs segment by segment by the
    [model segments = real runs] tests in test/test_rdist.ml (random C**
    programs and jacobi, 8/64/256 B, stache and predictive).  Prices are
    shared, not just tested: when the flush was still copied here, a
    wrong size for bare grant-only notices passed 200 random programs and
    every validation band, and only an exact check of Barnes under
    predictive at 64 B caught it. *)

module Network = Ccdsm_tempest.Network

type protocol =
  | Stache
  | Predictive of { coalesce : bool; conflict_action : [ `Ignore | `First_stable ] }

val protocol_of_name :
  ?coalesce:bool ->
  ?conflict_action:[ `Ignore | `First_stable ] ->
  string ->
  (protocol, string) result
(** Maps registry names ("stache", "predictive") to modeled protocols;
    [Error] lists what the model covers for anything else. *)

val protocol_label : protocol -> string

type seg_pred = {
  pseq : int;
  pphase : int;
  pname : string;
  read_faults : int;
  write_faults : int;
  presends : int;  (** presend grants (read + write) delivered this segment *)
  msgs : int;  (** replayed protocol messages only *)
  bytes : int;
  msgs_total : int;  (** residual-corrected: protocol + carried-over background *)
  bytes_total : int;
  bucket_us : float array;
      (** predicted time per bucket, summed over nodes, [Machine.all_buckets]
          order: the segment's profiled actuals shifted by the priced-traffic
          delta between target and base geometry *)
}

type prediction = {
  p_block_bytes : int;
  p_protocol : string;
  segs : seg_pred array;
  faults : int;
  presends : int;
  msgs : int;  (** residual-corrected run total, incl. between-segment traffic *)
  bytes : int;
  p_bucket_us : float array;
      (** predicted run-total time per bucket, summed over nodes (segments
          plus between-segment carryover), microseconds *)
  p_wall_us : float;
      (** predicted wall clock: mean node time = sum of [p_bucket_us] over
          buckets divided by the node count (the final barrier equalizes
          node times, so mean bucket time sums to the wall clock) *)
}

type predictor
(** A profile pre-compiled for repeated evaluation: event streams flattened
    to packed int arrays, every run resolved to its allocation entry, and
    the baseline replay (at the profiled geometry) cached.  Preparing once
    and calling {!eval} per block size is what makes a warm what-if a
    few-millisecond operation on six-figure event counts. *)

val prepare : Profile.t -> net:Network.t -> protocol:protocol -> (predictor, string) result
(** Compile [p] for predictions under [protocol]; [net] is the network the
    replay is priced on (through {!Ccdsm_proto.Cost}).  [Error] on a
    malformed profile (events referencing unallocated addresses,
    heap-mirror divergence) or a profile collected under a protocol the
    model cannot replay. *)

val eval :
  ?fudge_faults:int ->
  ?fudge_wait_us:float ->
  predictor ->
  block_bytes:int ->
  (prediction, string) result
(** One replay of the prepared profile at [block_bytes].  [fudge_faults]
    perturbs every segment's predicted read faults and [fudge_wait_us]
    every segment's predicted Remote_wait time by the given amount —
    deliberate model-corruption knobs for the harness's negative tests (a
    wrong model must fail cross-validation).  [Error] on an invalid block
    size (must be a power of two >= 8). *)

val predict :
  ?fudge_faults:int ->
  ?fudge_wait_us:float ->
  Profile.t ->
  net:Network.t ->
  block_bytes:int ->
  protocol:protocol ->
  (prediction, string) result
(** [prepare] + [eval] in one step, for one-shot callers. *)
