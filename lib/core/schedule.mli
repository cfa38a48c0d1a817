(** Communication schedules (paper section 3.3).

    A schedule records, per cache block that required communication during a
    parallel phase, whether the block was read (and by which processors) or
    written (and by which processor).  Schedules are built incrementally from
    access faults: the first execution of a phase populates the schedule and
    later executions extend it, so evolving (adaptive) sharing patterns are
    tracked.  A block that is both read and written within the same phase is
    marked Conflict (false sharing or conflicting parallel tasks) and the
    presend phase takes no action for it.

    Deletions are not tracked — when a processor stops accessing a block the
    schedule still transfers it (the paper's stated limitation); the protocol
    exposes a flush primitive to rebuild schedules wholesale. *)

open Ccdsm_util

type block = Ccdsm_tempest.Machine.block

type pre = Pre_readers of Nodeset.t | Pre_writer of int
(** The last stable mark a block held before becoming a conflict. *)

type mark =
  | Readers of Nodeset.t  (** consumers that requested a readable copy *)
  | Writer of int  (** the processor that requested the writable copy *)
  | Conflict of pre
      (** read and written within the phase.  The default presend takes no
          action; section 3.4 suggests anticipating "the first stable block
          state (read or write) before the conflict occurred", which the
          retained {!pre} makes possible (the predictive protocol's
          [First_stable] conflict action). *)

val presend_mark : [ `Ignore | `First_stable ] -> mark -> mark
(** The mark a presend acts on under a conflict action: [`Ignore] keeps a
    Conflict, which gets no action (the paper's implementation);
    [`First_stable] replaces it with the retained {!pre} mark.  Readers and
    Writer marks come back unchanged. *)

type t

val create : unit -> t

val record_read : t -> block -> reader:int -> unit
(** Note a faulting read request from [reader].  A block already marked
    written becomes Conflict. *)

val record_write : t -> block -> writer:int -> unit
(** Note a faulting write request from [writer].  A block already marked read
    becomes Conflict; a block already marked written by a different node keeps
    the latest writer (migratory data) and bumps {!rewrites}. *)

val find : t -> block -> mark option
val cardinal : t -> int

val conflicts : t -> int
(** Every colliding insertion: transitions to Conflict {e plus} later
    records landing on an already-conflicted block.  (An earlier revision
    counted only the transitions, silently understating collision volume on
    hot blocks; the number of blocks currently marked Conflict is
    [conflicts t - conflict_hits t], since the mark is absorbing.) *)

val conflict_hits : t -> int
(** The subset of {!conflicts} that hit a block already marked Conflict.
    Together they separate "how many blocks are contended"
    ([conflicts - conflict_hits]) from "how hot the contended blocks are". *)

val rewrites : t -> int
(** Write-after-write re-markings observed (migration within a phase). *)

val iter_sorted : t -> (block -> mark -> unit) -> unit
(** Iterate entries in ascending block order (the order the presend phase
    scans, so neighbouring blocks coalesce). *)

val sorted_keys : t -> block array
(** The ascending block array behind {!iter_sorted}, computing and caching
    it if stale.  The returned array is the cache itself — do not mutate.
    Forcing it up front makes subsequent {!iter_sorted}/{!find} calls pure
    reads, which is what lets the event-sharded presend iterate one schedule
    from several domains at once. *)

val nth_sorted : t -> int -> block
(** The [i]-th block in ascending block order; raises [Invalid_argument]
    when [i] is outside [0, cardinal t).  Used by the fault injector to pick
    a deterministic corruption victim. *)

val remove : t -> block -> unit
(** Forget a block's entry (fault injection: a lost schedule record).  No-op
    when the block has no entry. *)

val set_mark : t -> block -> mark -> unit
(** Overwrite (or create) a block's mark verbatim, bypassing the
    read/write/conflict transition logic (fault injection: a corrupted
    schedule entry that mis-states the consumer set). *)

val clear : t -> unit
(** Empty the schedule and zero all counters (the flush primitive). *)

val pp : Format.formatter -> t -> unit
