(** The data-parallel runtime: protocol selection, parallel phases, barriers.

    This layer plays the role of the C\*\* runtime system: it executes
    data-parallel operations over aggregates on the simulated DSM and honours
    the compiler's protocol directives.  A parallel operation whose phase is
    [scheduled] is bracketed by {!Ccdsm_proto.Coherence.t} phase hooks — for
    the predictive protocol that means pre-sending the phase's schedule on
    entry and recording faults while it runs.

    Parallel tasks are executed grouped by owning node, in node order, which
    is deterministic and — because C\*\* guarantees independent parallel
    invocations — produces the same values as a concurrent execution (see
    DESIGN.md, "Execution model note"). *)

module Machine = Ccdsm_tempest.Machine
module Predictive = Ccdsm_core.Predictive

type protocol = Stache | Predictive | Write_update | Migratory | Commutative
(** Protocol selection.  Each constructor maps 1:1 onto a
    {!Ccdsm_proto.Registry} name ({!protocol_name}); the runtime
    instantiates through the registry, so its sanitizer mode and directory
    come from the registered factory. *)

val protocol_name : protocol -> string
(** The registry name: ["stache"], ["predictive"], ["write_update"],
    ["migratory"] or ["commutative"]. *)

val protocol_of_name : string -> (protocol, string) result
(** Inverse of {!protocol_name}; [Error] lists the registered names. *)

val protocol_names : unit -> string list
(** All registered protocol names, sorted ({!Ccdsm_proto.Registry.names}). *)

type phase
(** A static parallel-phase identity (one per directive site the compiler
    emits, shared across iterations so schedules accumulate). *)

type t

val create :
  ?cfg:Machine.config ->
  ?presend_coalesce:bool ->
  ?conflict_action:[ `Ignore | `First_stable ] ->
  ?migratory_threshold:int ->
  ?sanitize:bool ->
  ?check_races:bool ->
  protocol:protocol ->
  unit ->
  t
(** Every parallel task is charged 1 µs of scheduling overhead as
    Compute.  [presend_coalesce] (default true) controls
    the predictive protocol's bulk-message coalescing and [conflict_action]
    its handling of conflict-marked schedule blocks (ablation hooks; ignored
    by the other protocols).  [migratory_threshold] (default 1) is the
    migratory protocol's detection threshold
    ({!Ccdsm_proto.Registry.migratory_opts}); the per-protocol option
    records route each knob only to the protocol that reads it.  [sanitize] (default false) attaches an online
    {!Ccdsm_proto.Sanitizer} to the machine, in the mode matching [protocol];
    any coherence-invariant violation then raises
    [Ccdsm_proto.Sanitizer.Violation].  [check_races] (default true) controls
    the sanitizer's word-level write-race check; disable it for applications
    whose semantics permit multi-writer phases (e.g. Barnes' tree build,
    where many bodies hash into one cell with last-writer-wins). *)

val machine : t -> Machine.t
val heap : t -> Shared_heap.t
val coherence : t -> Ccdsm_proto.Coherence.t
val predictive : t -> Predictive.t option
(** The predictive protocol instance when [protocol = Predictive]. *)

val protocol : t -> protocol
val nodes : t -> int

val make_phase : t -> name:string -> scheduled:bool -> phase
(** Declare a parallel-phase site.  [scheduled] is the compiler's decision:
    [true] places a predictive-protocol directive at this site. *)

val phase_name : phase -> string
val phase_id : phase -> int
val phase_scheduled : phase -> bool

val phase_sites : t -> phase list
(** Every phase declared with {!make_phase}, in declaration (= id) order —
    the static phase table, for reports that map phase ids back to names. *)

val flush_phase : t -> phase -> unit
(** Flush the accumulated communication schedule for [phase] (applications
    whose pattern changed with many deletions rebuild from scratch). *)

val charge_compute : t -> node:int -> float -> unit
(** Account [us] microseconds of application computation on [node]. *)

val barrier : t -> unit
(** Global barrier; skew is charged to the Synch bucket. *)

val parallel_for_1d :
  t -> ?phase:phase -> Aggregate.t -> (node:int -> i:int -> unit) -> unit
(** Run one task per element of a 1-D aggregate on the element's owner,
    followed by an implicit barrier. *)

val parallel_for_2d :
  t ->
  ?phase:phase ->
  Aggregate.t ->
  (node:int -> i:int -> j:int -> unit) ->
  unit

val parallel_nodes : t -> ?phase:phase -> (node:int -> unit) -> unit
(** One task per node (SPMD-style chunked phase), with the same phase
    bracketing and final barrier. *)

val phase_region : t -> phase -> (unit -> 'a) -> 'a
(** Open [phase] around a whole region — the shape the compiler produces when
    it hoists a directive out of a loop (one pre-send, one fault-recording
    window covering every parallel operation inside).  Parallel operations
    executed within the region must not carry their own [?phase]. *)

val allreduce_sum : t -> (int -> float) -> float
(** [allreduce_sum t contrib] reduces [contrib node] over all nodes with a
    combining tree, charging each node the tree's message costs, and returns
    the sum.  Reductions use the language's built-in support, not the
    predictive protocol (section 1). *)

val time_breakdown : t -> (Machine.bucket * float) list
(** Mean over nodes of each time bucket, in microseconds. *)

val total_time : t -> float
(** Wall-clock of the simulated run: the maximum node time. *)

(** {1 Run accounting}

    Always-on counters kept as plain fields (no registry work); the harness
    folds them into a metrics snapshot when one was requested.  While a
    metrics registry is installed ({!Ccdsm_obs.Obs.set_global} before
    {!create}), every executed phase additionally records an
    {!Ccdsm_obs.Obs.span} profiling the phase's time-bucket and counter
    deltas. *)

val phases_run : t -> int
(** Dynamic parallel-phase executions (scheduled or not). *)

val tasks_dispatched : t -> int
val task_time_us : t -> float
(** Total task-dispatch overhead charged as compute. *)
