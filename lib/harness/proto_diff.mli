(** Differential protocol-equivalence harness.

    Coherence protocols in this simulator are cost and permission models
    over one structurally-shared heap, so every correct protocol must leave
    {e byte-identical} final heap contents on the same deterministic
    application run.  This harness runs each registered protocol on the same
    app/config with the invariant sanitizer attached and compares an FNV-1a
    digest of every shared-heap word — any divergence (a recovery path that
    loses a phase boundary, a merge that never runs, a sanitizer violation)
    fails loudly.  Relative traffic sanity (e.g. migratory ≤ stache remote
    misses on a migratory workload) is asserted by the tests on the per-row
    counters this module reports. *)

module Machine = Ccdsm_tempest.Machine
module Runtime = Ccdsm_runtime.Runtime

type row = {
  protocol : string;  (** registry name *)
  digest : int64;  (** FNV-1a 64 over every shared-heap word's bit pattern *)
  checksum : float;  (** the app's own checksum *)
  total_us : float;
  buckets : (string * float) list;
      (** mean-over-nodes time per paper bucket ({!Runtime.time_breakdown}
          with names), in [Machine.all_buckets] order; sums to [total_us]
          when the run ends at a barrier (every phase loop does) *)
  remote_misses : int;  (** read + write faults *)
  msgs : int;
  bytes : int;
  stats : (string * float) list;  (** the protocol's [Coherence.stats ()] *)
}

type report = {
  app : string;
  nodes : int;
  block_bytes : int;
  rows : row list;  (** in the order the protocols were given *)
  agree : bool;  (** all digests identical *)
}

val digest_of_machine : Machine.t -> int64
(** The heap digest on its own (tests digest golden heaps directly). *)

val all_protocols : unit -> Runtime.protocol list
(** Every registered protocol, in registry (sorted-name) order. *)

val create_runtime :
  nodes:int ->
  block_bytes:int ->
  migratory_threshold:int ->
  faults:Ccdsm_tempest.Faults.plan option ->
  check_races:bool ->
  Runtime.protocol ->
  Runtime.t
(** The fresh runtime {!run} runs each protocol on: a [nodes]-node machine
    with [block_bytes] blocks and the invariant sanitizer attached
    ([check_races] feeds it), the migratory [migratory_threshold], and the
    fault plan [faults] installed (a zero plan removes the injector). *)

val run :
  ?protocols:Runtime.protocol list ->
  ?nodes:int ->
  ?block_bytes:int ->
  ?migratory_threshold:int ->
  ?faults:Ccdsm_tempest.Faults.plan ->
  ?check_races:bool ->
  app:string ->
  run:(Runtime.t -> float) ->
  unit ->
  report
(** Run [run] once per protocol (default: all registered) on a fresh
    {!create_runtime} ([nodes] default 8, [block_bytes] default 32) and
    compare heap digests.  [migratory_threshold] (default 1) sets the
    migratory protocol's detection threshold, carried through the
    per-protocol option records.  [faults] installs a fault plan on
    every run; [check_races] feeds the sanitizer (disable for legitimate
    multi-writer apps like Barnes).
    @raise Ccdsm_proto.Sanitizer.Violation if any protocol's trace breaks
    its invariant discipline. *)

val find : report -> string -> row option
(** Row lookup by registry name. *)

val render : report -> string
(** One-line verdict plus a per-protocol counter/digest table. *)
