(** The system under verification, as an explicit transition system.

    A {!sys} wraps a small simulated machine (a few nodes, a few blocks)
    running one of the coherence protocols with the online sanitizer
    attached; {!op} is the alphabet of operations the explorer drives it
    with; {!state_of} canonicalizes the protocol-relevant state so
    exploration deduplicates; {!replay} re-executes a sequence from scratch
    checking invariants after every step.

    When [faults] is enabled in the {!config}, the alphabet additionally
    carries {e fault branches}: each faulty op queues one scripted verdict
    (via {!Ccdsm_tempest.Faults.force}) on a zero-rate injector, so every
    fault-plan point — message drop, duplication, delay, and schedule
    corruption — becomes a deterministic, exhaustively explorable
    transition rather than a sampled probability. *)

module Trace = Ccdsm_tempest.Trace
module Sanitizer = Ccdsm_proto.Sanitizer

type protocol = Stache | Predictive | Write_update | Migratory | Commutative

val protocol_name : protocol -> string
(** Matches the {!Ccdsm_proto.Registry} name. *)

val protocol_of_name : string -> (protocol, string) result
(** Inverse of {!protocol_name}; [Error] lists the registered names (the
    [repro check --protocol] entry point). *)

val all_protocols : protocol list
(** Every explorable protocol, baselines first. *)

type fault = Drop | Dup | Delay

val fault_name : fault -> string

type op =
  | Read of int * int  (** [Read (node, block)] *)
  | Write of int * int
  | Faulty_read of int * int * fault
      (** a read whose first protocol message suffers the given fault *)
  | Faulty_write of int * int * fault
  | Phase_begin
  | Faulty_presend of fault
      (** a phase entry whose first presend message suffers the fault *)
  | Phase_end
  | Flush
  | Sched_drop  (** drop the first recorded schedule entry for phase 0 *)
  | Sched_retarget of int
      (** retarget the first recorded schedule entry to the given node *)

val op_name : op -> string

val op_fits : nodes:int -> blocks:int -> op -> bool
(** Whether the op only references nodes/blocks below the given bounds.
    The shrinker uses this to refilter a failing sequence when it tries a
    smaller machine. *)

type config = {
  protocol : protocol;
  nodes : int;
  blocks : int;
  faults : bool;  (** include fault branches in the alphabet *)
}

val default_config :
  ?protocol:protocol -> ?nodes:int -> ?blocks:int -> ?faults:bool -> unit -> config
(** Defaults: Stache, 3 nodes, 2 blocks, faults off. *)

val config_to_string : config -> string

val alphabet : config -> op list
(** Every op applicable under [config]: reads and writes for each
    (node, block), their fault variants when [faults], and the phase /
    schedule ops the protocol reacts to — all of them for [Predictive],
    [Phase_end]/[Flush] for [Write_update], [Phase_end] (the merge) for
    [Commutative], none for the passive-phase protocols. *)

type sys

exception Violation of string
(** An invariant failed.  The message names the op and the check. *)

val make_sys : ?recorder:(Trace.event -> unit) -> config -> sys
(** A fresh system: machine + protocol + sanitizer (races off — the op
    alphabet writes from different nodes with no phase structure), one
    4-word block per [config.blocks] homed round-robin, and — when
    [config.faults] — a zero-rate scripted fault injector.  [recorder]
    subscribes to the trace bus {e before} the sanitizer so it captures the
    violating event even when the sanitizer raises on it. *)

val apply : sys -> op -> unit
(** Execute one op.  May raise {!Violation} (read-value mismatch) or
    {!Sanitizer.Violation}. *)

val check_invariants : sys -> after:string -> unit
(** Per-protocol tag discipline (single-writer/multi-reader for the
    write-invalidate protocols, at-most-one-writer for write-update,
    mirror/tag agreement for commutative) and directory/tag agreement when
    the protocol maintains a directory.  @raise Violation on failure. *)

val tag_of : sys -> node:int -> block:int -> Ccdsm_tempest.Tag.t
(** Read-only tag probe for caller-supplied invariants. *)

val lost_grants_of : sys -> (int * int) list
(** The predictive protocol's dropped presend grants ([] for Stache). *)

val state_of : sys -> string
(** Canonical state: tags, directory, phase status, schedule contents, and
    (predictive) the lost-grant set.  Two systems with equal canonical
    states behave identically under every future op sequence. *)

val replay :
  ?recorder:(Trace.event -> unit) ->
  ?extra:(sys -> unit) ->
  config ->
  op list ->
  string
(** Replay a sequence from scratch, checking invariants after every op, and
    return the final canonical state.  [extra] is an additional caller
    invariant checked after each op (the mutation tests use it to seed
    artificial bugs the shrinker must minimize).  Every exception an op
    raises — sanitizer violation or anything else — is rethrown as
    {!Violation}: no explored op may raise. *)
