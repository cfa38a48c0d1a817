(** First-touch access profiles: collection and canonical JSON.

    A profile is everything the analytical model ({!Model}) needs to predict
    a run's per-phase coherence behaviour at {e any} block size from one
    instrumented execution, and nothing else:

    - the interleaved allocation stream — raw {!Ccdsm_tempest.Machine.alloc}
      calls and logical shared-heap requests — so the block layout can be
      re-derived for a different block geometry;
    - per flat phase segment, the ordered first-touch access events (one per
      distinct (node, word, read/write) triple, run-length compressed), which
      determine the run's coherence faults exactly because parallel phases
      execute node-major in a deterministic order; and
    - the profiled run's actual per-segment counter deltas (faults, messages,
      bytes, presend grants) and per-segment time-bucket deltas (summed over
      nodes, microseconds), which anchor cross-validation, supply the
      block-size-invariant traffic residual (reductions, barriers), and base
      the wall-clock cost model ({!Model.eval}).

    Collection is one {!Ccdsm_tempest.Machine.observer} — access touches,
    allocations, heap allocations and phase boundaries through their typed
    hooks, schedule flushes as the [Sched_flush] event — and is pure
    observation: a profiled run produces byte-identical simulated results.
    The JSON encoding is canonical (fixed key order, round-trip float
    literals, one line per segment), so equal profiles are equal bytes. *)

module Machine = Ccdsm_tempest.Machine

(** One run-length-compressed profile event.  Access runs cover [count]
    first-touch words [addr, addr+stride, ...] by one node; allocation
    events are interleaved at their stream position so the model can lay
    out addresses before replaying the accesses that use them. *)
type event =
  | Run of { node : int; write : bool; addr : int; stride : int; count : int }
  | Alloc of { words : int; home : int }
  | Heap_alloc of { node : int; words : int; spilled : bool }
  | Flush of { fphase : int }  (** the app discarded this phase's schedule *)

type segment = {
  seq : int;
  phase : int;  (** recording phase id; -1 when none *)
  name : string;
  record : bool;  (** a scheduled phase is active (schedule recording on) *)
  presend : bool;  (** segment begins with the scheduled phase's presend *)
  a_faults : int;  (** actuals: machine counter deltas over the segment *)
  a_msgs : int;
  a_bytes : int;
  a_presends : int;  (** presend grants delta (0 without a sampler) *)
  a_bucket_us : float array;
      (** time-bucket deltas over the segment, summed over nodes, in
          [Machine.all_buckets] order (microseconds) *)
  events : event array;
}

type t = {
  app : string;
  protocol : string;
  nodes : int;
  block_bytes : int;
  arena_blocks : int;  (** shared-heap arena refill, in blocks *)
  out_msgs : int;  (** traffic between segments (reductions, barriers) *)
  out_bytes : int;
  out_bucket_us : float array;
      (** time charged between segments, summed over nodes, per bucket *)
  segments : segment array;
}

(** {1 Collection} *)

type collector

val attach :
  ?sample_presends:(unit -> int) ->
  app:string ->
  protocol:string ->
  arena_blocks:int ->
  Machine.t ->
  collector
(** Attach a collector as an observer of the machine.  [sample_presends] is
    polled at segment boundaries (pass the predictive protocol's grant
    counter to record per-segment presend actuals). *)

val finish : collector -> t
(** Detach the collector's observer and build the profile. *)

val collect :
  ?sample_presends:(unit -> int) ->
  app:string ->
  protocol:string ->
  arena_blocks:int ->
  Machine.t ->
  (unit -> 'a) ->
  t * 'a
(** [collect ... machine f] = attach, run [f ()], finish. *)

(** {1 Canonical JSON} *)

val to_json : t -> string
(** Canonical encoding: fixed key order, one line per segment.  Counters are
    integers; bucket times are round-trip-exact float literals (shortest of
    [%.12g]/[%.17g] that reparses to the same value), so a saved profile
    reloads bit-for-bit.  Byte-stable: equal profiles encode identically. *)

val of_json : string -> (t, string) result
(** Decode a version-3 profile; any other [version] is an error naming it. *)

val save : string -> t -> unit
val load : string -> (t, string) result
(** [load path] reads and decodes; [Error] has a one-line message for a
    missing, empty or malformed file. *)
