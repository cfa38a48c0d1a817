(** Online coherence-invariant sanitizer.

    A machine observer ({!Ccdsm_tempest.Machine.observer}) that validates
    protocol invariants on every event and every completed access, in the
    spirit of the directory-protocol verification role Teapot played for
    the paper's protocols — but online, during any run, so the exhaustive
    model checker, the differential fuzzer, golden traces and ordinary
    application runs all check transition-level invariants rather than
    only end values.

    Checks, by event:

    - [Tag_change]: single-writer/multi-reader on the affected block — at
      most one ReadWrite copy, and (in {!Invalidate} mode) never a
      ReadWrite and a ReadOnly copy simultaneously.  Checked on the raw
      transition, so even transient protocol states must stay safe.
    - [Msg] and [Msg_drop]: source in range, destination in range or -1
      (a reduction message has no single destination), positive size.
    - [Access]/[Barrier]/[Phase_end]/[Sched_flush] (stable points):
      directory/tag agreement ({!Directory.check_invariant}) for every
      block whose tags changed since the last stable point.  Mid-transaction
      disagreement is legal (a fault updates tags before the directory);
      by the time an access completes or a barrier/phase boundary is
      reached the two must agree exactly.
    - [Presend]: the destination must appear in the communication schedule
      recorded for that (phase, block) — presends go only to recorded
      consumers.  A schedule flush clears the recorded set, so this also
      checks schedule/directory consistency after a flush: no presend may
      happen for a flushed phase until new faults are recorded.
    - [Access] with [write = true]: per-phase write-ownership race check —
      two different nodes writing the same word between consecutive
      barriers violates the race-freedom the execution model rests on
      (disable with [~check_races:false] for raw protocol exploration that
      has no phase structure, e.g. the model checker's op sequences).
    - [Access] and [Tag_change]: the node, word and block must exist on the
      machine — {!feed} takes untrusted replay lines (the machine has
      range-checked a live access already).

    On violation the sanitizer raises {!Violation} with a structured
    {!violation} naming the failing invariant and carrying the most recent
    events for context.

    Cost: O(1) amortized per event, apart from the per-block checks
    themselves (an O(nodes) tag scan per [Tag_change], and one
    {!Directory.check_invariant} per block dirtied since the last stable
    point).  The race table, the history ring and the pending stable point
    are the machine's {!Ccdsm_tempest.Machine.audit}: while the attached
    sanitizer is the machine's only touch or access observer, an access no
    check can fail (tag permitted, nothing dirty, a write's word unstamped
    in this barrier interval or the writer's own) is counted, recorded and
    stamped by the machine with no hook called.  Every other access reaches
    the typed [on_access] hook, with no {!Ccdsm_tempest.Trace.Access}
    built.  Nothing is allocated per access, end to end: the dirty set is a
    block stack with a per-block mark, so a stable point with nothing dirty
    costs one compare; the race table is a per-word array stamped with the
    barrier interval and the writer, so a [Barrier] bumps a counter; the
    history is a fixed ring that keeps accesses unboxed.  The block and
    word tables grow by doubling to cover what the machine has allocated,
    never past twice that. *)

module Machine = Ccdsm_tempest.Machine
module Trace = Ccdsm_tempest.Trace

type mode =
  | Invalidate  (** write-invalidate protocols (Stache, predictive, migratory) *)
  | Update
      (** the write-update baseline: one writer may legitimately coexist
          with update-fed ReadOnly copies, and there is no directory *)
  | Commutative
      (** the commutative-update protocol: several nodes may hold privatized
          ReadWrite copies of a reduction block {e within} a phase; the
          invariant moves to the phase boundary — every [Phase_end] must
          observe at most one ReadWrite copy per block (the merge ran).
          ReadWrite holders are tracked incrementally from [Tag_change]
          events, since the multi-writer window spans many stable points. *)

type t

type violation = {
  check : string;
      (** which invariant tripped: ["swmr"], ["merge"], ["directory"],
          ["msg"], ["presend"], ["race"], ["drop"], ["retry"], or
          ["access"] / ["tag"] for an event naming a node, word or block
          the machine does not have *)
  message : string;  (** human-readable description of the failure *)
  history : Trace.event list;
      (** the most recent events at the failure, oldest first *)
}

exception Violation of violation

val to_string : violation -> string
(** Multi-line diagnostic: the message followed by the recent events. *)

val attach :
  ?mode:mode -> ?dir:Directory.t -> ?check_races:bool -> Machine.t -> t
(** Create a sanitizer and attach it to [machine] as an observer.  [mode]
    defaults to [Invalidate]; pass [dir] to enable directory/tag agreement
    checking; [check_races] defaults to [true]. *)

val create :
  ?mode:mode -> ?dir:Directory.t -> ?check_races:bool -> Machine.t -> t
(** Like {!attach} but without observing: the caller pushes events through
    {!feed} explicitly.  The trace-replay oracle uses this to validate
    recorded JSONL traces against a mirror machine whose tags it maintains
    from the replayed [Tag_change] events. *)

val feed : t -> Trace.event -> unit
(** Validate one event (exactly what the attached form does per event).
    @raise Violation when an invariant fails. *)

val events_seen : t -> int
(** Number of events validated so far (sanity hook for tests). *)
