(** Commutative-update protocol for reduction phases.

    Reduction-style phases (Water's force accumulation, Barnes' tree build)
    make write-invalidate protocols ping-pong: several nodes accumulate into
    the same blocks, so every write fault drags the block across the
    machine.  Following the privatize-and-merge idea of fast parallel
    commutative updates, this protocol instead {e privatizes} on a write
    fault — the node gets its own ReadWrite copy with a permission-only
    upgrade (or a single data fetch on a cold miss) and no other copy is
    invalidated — and folds the private copies back into the canonical home
    copy at the phase boundary: each remote writer pushes one bulk-coalesced
    update message home, writers step down to consumer copies, and stale
    bystander readers get one batched invalidation notice per destination.
    A read fault that finds a block still spread across private copies
    triggers the merge on demand (the reader stalls for it).

    Invariant discipline differs from write-invalidate: several ReadWrite
    copies of one block are legal {e within} a phase, so the sanitizer's
    {!Sanitizer.Commutative} mode moves the single-writer check to the phase
    boundary, where the merge must have left at most one ReadWrite copy.
    All message traffic routes through {!Engine.exchange}, so drop/dup/delay
    injection exercises merge recovery. *)

module Machine = Ccdsm_tempest.Machine

type t

val create : Machine.t -> t
(** Build the protocol state and install its fault handlers on [machine]. *)

val coherence_of : t -> Coherence.t
(** The coherence interface.  [phase_end] runs the merge; [stats] reports
    [comm_privatizations], [comm_upgrades], [comm_merges],
    [comm_merged_blocks], [comm_merge_msgs], [comm_merge_bytes],
    [comm_read_merges] and [comm_inval_notices]. *)

val coherence : Machine.t -> Coherence.t
(** [create] + [coherence_of] for callers that need no handle. *)

val engine : t -> Engine.t
(** The engine used for exchanges and cost accounting (its directory is
    unused — the home copy is always canonical). *)

val dirty_blocks : t -> Machine.block list
(** Blocks privatized since their last merge, ascending. *)

val check_invariant : t -> Machine.block -> (unit, string) result
(** Verify the writer/reader mirrors agree exactly with the machine's tags
    for [block] (model-checker invariant hook). *)
