(** Execution of compiled C\*\* programs on the DSM runtime.

    Programs are pre-compiled to closures (local variables become array
    slots, field names become offsets) so that the per-element interpretive
    overhead stays small.  A parallel call runs one invocation per element of
    the parallel aggregate on the element's owning node; every aggregate
    access goes through {!Ccdsm_runtime.Aggregate}, i.e. through the machine's
    tag check and whatever coherence protocol the runtime was created with.
    Phase regions placed by the compiler run through
    {!Ccdsm_runtime.Runtime.phase_region}, so their body is bracketed by the
    protocol's [phase_begin]/[phase_end] hooks and, when a profiler is
    attached, by its phase notifications. *)

exception Runtime_error of string

type env

val load : Ccdsm_runtime.Runtime.t -> Compile.compiled -> env
(** Create the program's aggregates (homed per their distributions) and one
    runtime phase per placed directive.
    @raise Runtime_error if an aggregate's distribution does not fit the
    machine (e.g. a tiled grid not matching the node count). *)

val aggregate : env -> string -> Ccdsm_runtime.Aggregate.t
(** Look up a program aggregate, for initialization and inspection by the
    host. *)

val run : env -> unit
(** Execute [main].
    @raise Runtime_error on out-of-bounds aggregate indices. *)

val run_pfun : env -> string -> unit
(** Execute a single parallel function outside any phase (host-driven
    initialization). *)
