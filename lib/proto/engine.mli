(** Write-invalidate protocol transitions (the Teapot-analogue layer).

    The paper's protocols were written in Teapot, a DSL for specifying
    coherence handlers.  Here the equivalent role is played by this module:
    it implements the directory state transitions, tag updates, message
    counting and latency charging for the standard write-invalidate actions,
    and the other protocols (Stache, predictive, write-update) are composed
    from these primitives instead of repeating the message bookkeeping.

    Latency convention: the faulting node stalls for the whole miss, so the
    full message chain cost is charged to that node's [bucket] (Remote_wait
    on the demand path; the predictive protocol charges its own presend
    bucket when it reuses these primitives).  Message counts are attributed
    to the node that sends each message.  Every message shape and price
    comes from {!Cost}, the table the analytical model prices from too. *)

module Machine = Ccdsm_tempest.Machine

type metrics = {
  exchanges : Ccdsm_obs.Obs.Counter.t;  (** demand round-trips started *)
  attempts : Ccdsm_obs.Obs.Counter.t;  (** transmissions incl. retries *)
}

type t = { machine : Machine.t; dir : Directory.t; cost : Cost.t; mx : metrics option }
(** [cost] prices the machine's network at its block size; [mx] is resolved
    from the machine's metrics registry at {!create} time ([None] when the
    machine is unmetered). *)

val create : Machine.t -> t
(** Build an engine (with a fresh directory) over [machine].  Does not
    install any handlers. *)

val msg_cost : t -> bytes:int -> float
(** Latency of one message of the given size on the machine's network. *)

val fault_cost : t -> float
(** Fixed access-fault handling overhead (charged once per fault). *)

val exchange :
  t ->
  bucket:Machine.bucket ->
  payer:int ->
  block:Machine.block ->
  (int * int * Ccdsm_tempest.Trace.msg_kind * int) list ->
  cost:float ->
  unit
(** The reliable request/response primitive every demand transition is built
    on: send the listed [(src, dst, kind, bytes)] legs in order and charge
    [payer] the caller's exact [cost] (so fault-free runs stay bit-identical
    to the pre-fault-injection simulator).  With a fault injector installed,
    a dropped leg times out and retransmits the whole exchange (with
    exponential backoff and [Retry] trace events, capped attempts); a
    delayed leg costs a spurious timeout.  Protocols composed outside this
    module (migratory handoffs, commutative merges) route their transactions
    through this so fault injection exercises their recovery paths too. *)

val fetch :
  t ->
  bucket:Machine.bucket ->
  payer:int ->
  node:int ->
  owner:int ->
  Machine.block ->
  Cost.fetch ->
  unit
(** One demand fetch of the given shape as a reliable {!exchange}: the legs
    of {!Cost.fetch_legs} between [node], the block's home and [owner],
    priced by {!Cost.fetch_us} and charged to [payer]. *)

val invalidate : t -> node:int -> Machine.block -> unit
(** Drop [node]'s copy, counting the invalidation. *)

val downgrade : t -> node:int -> Machine.block -> unit
(** Demote [node]'s copy to ReadOnly, counting the downgrade. *)

val demand_read : t -> bucket:Machine.bucket -> node:int -> Machine.block -> unit
(** Full read-fault transition: obtain a ReadOnly copy at [node], downgrading
    a remote writer if necessary (the 4-message chain of section 3.2 when
    producer, consumer and home are distinct). *)

val demand_write : t -> bucket:Machine.bucket -> node:int -> Machine.block -> unit
(** Full write-fault transition: obtain the ReadWrite copy at [node],
    invalidating all other holders. *)

val invalidate_holders : t -> except:int -> payer:int -> bucket:Machine.bucket -> Machine.block -> unit
(** Invalidate every valid copy except [except]'s, leaving the directory
    entry Exclusive [except] if [except] holds a copy, charging latency to
    [payer].  Building block for upgrades and presend-write actions. *)

val recall_to_home : t -> payer:int -> bucket:Machine.bucket -> Machine.block -> unit
(** If the block is Exclusive at a non-home node, downgrade that writer to a
    reader (its copy returns to the home's memory).  Afterwards the home
    memory is current.  Charges [payer]. *)

val stache : Machine.t -> t * Coherence.t
(** The default Blizzard protocol: sequentially-consistent directory-based
    write-invalidate.  Installs handlers on the machine and returns both the
    engine (so a wrapping protocol can share the directory) and the
    coherence interface. *)
