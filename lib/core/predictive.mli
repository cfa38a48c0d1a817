(** The predictive cache-coherence protocol (paper section 3).

    Augments Stache: while a compiler-demarcated parallel phase runs, every
    faulting request routed through a block's home node is recorded in that
    phase's {!Schedule}; when the phase is next entered, the home nodes
    pre-send the scheduled blocks to their anticipated consumers, with
    neighbouring blocks coalesced into bulk messages, and a global barrier
    stabilizes all block states before computation resumes.

    - Schedules are incremental: faults that the presend did not anticipate
      extend the schedule for subsequent iterations (section 3.3).
    - Readers-marked blocks: any current writer is downgraded (its copy
      returns home) and ReadOnly copies are forwarded to all marked readers
      that lack one.  Writer-marked blocks: all other holders are invalidated
      and the marked writer receives the ReadWrite copy.  Conflict-marked
      blocks get no action (section 3.4).
    - Between directives the protocol behaves exactly like Stache, so a
      wrongly-predicted (non-repetitive) phase is slower but still correct. *)

module Machine = Ccdsm_tempest.Machine

type t

type Ccdsm_proto.Registry.handle += Handle of t
(** The registry handle this module registers under the name ["predictive"];
    the runtime matches on it to drive schedule recording and presend. *)

val create : ?coalesce:bool -> ?conflict_action:[ `Ignore | `First_stable ] -> Machine.t -> t
(** Install the protocol on [machine].  The schedule-scan and recording
    overheads and the flush messages are priced by {!Ccdsm_proto.Cost}.
    [coalesce] (default [true]) enables the bulk-message coalescing of
    section 3.4; disabling it (one message per block) exists for the
    ablation benchmarks. *)

val coherence : t -> Ccdsm_proto.Coherence.t

val engine : t -> Ccdsm_proto.Engine.t
(** The underlying write-invalidate engine (directory access for tests). *)

val schedule : t -> phase:int -> Schedule.t option
(** The accumulated schedule for [phase], if any faults were recorded. *)

val in_phase : t -> int option
(** The phase currently recording, if any. *)

val lost_grants : t -> (int * int) list
(** [(node, block)] presend grants dropped in flight by the fault injector
    during the current phase, sorted.  The next access by [node] to [block]
    will fall back to a demand miss; the model checker folds this set into
    its canonicalized protocol state because it changes future behaviour. *)

(** {1 Statistics} *)

type stats = {
  mutable faults_recorded : int;  (** faults added to some schedule *)
  mutable presend_msgs : int;  (** messages sent by presend phases *)
  mutable presend_blocks : int;  (** block grants transferred by presend *)
  mutable presend_bytes : int;
      (** payload of the presend messages carrying block data (and of grants
          lost in flight) *)
  mutable presend_redundant : int;  (** schedule entries already satisfied *)
  mutable presend_undone : int;
      (** presend grants that nevertheless faulted again within the same
          phase execution — evidence of conflicting or shifted patterns *)
  mutable presend_grants_r : int;
      (** read grants delivered by presend phases; mirrors the [Presend]
          trace event with [write = false] one-for-one *)
  mutable presend_grants_w : int;  (** write grants delivered by presend *)
}

val stats : t -> stats
