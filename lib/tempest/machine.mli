(** The simulated fine-grain DSM multiprocessor (the Tempest substrate).

    A machine is [num_nodes] processors sharing one word-addressed global
    segment, split into cache blocks of [block_bytes].  Every (node, block)
    pair carries an access tag ({!Tag.t}); an application access that the tag
    does not permit vectors to the installed protocol handler, exactly as
    Blizzard vectors access faults to user-level Stache handlers.

    Timing is virtual and deterministic.  Each node owns four time buckets —
    the decomposition used in the paper's figures — and coherence protocols
    charge message and fault costs to them explicitly.  Data values are held
    in one global array: because parallel phases are executed in a
    deterministic order and applications are race-free within a phase, the
    values are the ones a real parallel execution would produce, while the
    tag and directory state still exposes every inter-node block movement. *)

type addr = int
(** A shared-memory address, in 8-byte word units. *)

type block = int
(** A cache-block index ([addr / words_per_block]). *)

type bucket =
  | Compute  (** application computation, incl. local shared accesses *)
  | Remote_wait  (** stalled on a demand miss (fault + protocol messages) *)
  | Presend  (** executing the predictive protocol's pre-send phase *)
  | Synch  (** waiting at barriers (includes load imbalance) *)

val all_buckets : bucket list
val bucket_name : bucket -> string

val bucket_index : bucket -> int
(** 0..3 in [all_buckets] order — the flat index used by the stats table and
    the timeline collector. *)

type config = {
  num_nodes : int;
  block_bytes : int;  (** power of two, >= 8 *)
  net : Network.t;
}

val default_config : ?num_nodes:int -> ?block_bytes:int -> ?net:Network.t -> unit -> config
(** 32 nodes, 32-byte blocks and {!Network.default} unless overridden. *)

val local_access_us : float
(** The Compute charge of one tag-permitted shared access (0.05 µs). *)

type counters = {
  mutable local_reads : int;
  mutable local_writes : int;
  mutable read_faults : int;
  mutable write_faults : int;
  mutable msgs : int;
  mutable bytes : int;
  mutable invalidations : int;  (** copies invalidated at this node *)
  mutable downgrades : int;  (** ReadWrite copies demoted to ReadOnly here *)
  mutable retries : int;
      (** demand requests this node retransmitted after a lost message
          (fault injection; always 0 on a reliable network) *)
  mutable timeouts : int;
      (** request timers that expired at this node: every retransmission,
          plus spurious timeouts where a delayed reply arrived late *)
  mutable presend_fallbacks : int;
      (** demand misses taken at this node for blocks whose presend grant
          was lost — the predictive protocol's graceful degradation *)
}

type handlers = {
  on_read_fault : node:int -> block -> unit;
      (** must leave the block readable at [node] *)
  on_write_fault : node:int -> block -> unit;
      (** must leave the block writable at [node] *)
}

type t

val create : config -> t
val config : t -> config
val num_nodes : t -> int
val block_bytes : t -> int
val words_per_block : t -> int
val net : t -> Network.t

val install : t -> handlers -> unit
(** Install the coherence protocol's fault handlers.  Until installed, any
    fault raises [Failure]. *)

(** {1 Observers}

    Whatever watches a machine — trace subscribers and the JSONL sink, the
    sanitizer, the profile and timeline collectors — is one {!observer}: a
    record of optional hooks, each called, in attach order, on only the
    observers that implement it.  With nothing attached every hook site
    tests one {!observed} flag and does nothing else.  Observers never
    change simulated results, so an observed run is byte-identical to an
    unobserved one; an exception a hook raises (the sanitizer's
    [Violation]) propagates to the faulting access.  A machine created
    while {!Trace.set_global} holds a sink starts with that sink subscribed
    and announces itself to it with an [Init] event. *)

val history_len : int
(** Slots in an audit's history ring: 16, a power of two. *)

type audit = {
  ring : int array;  (** two per slot; see {!record} and {!claim} *)
  mutable seen : int;  (** events recorded; the next slot is [seen land (history_len - 1)] *)
  mutable stamps : int array;  (** per word: [epoch + node] of its last writer *)
  mutable epoch : int;  (** a stamp below it is from an earlier barrier interval *)
  races : bool;  (** writes are race-checked *)
  mutable pending : bool;  (** a stable-point check is due *)
}
(** The sanitizer's per-access state, where {!read} and {!write} can reach
    it; the sanitizer decides what the fields mean and keeps them. *)

val record : audit -> node:int -> addr:addr -> write:bool -> faulted:bool -> unit
(** Put an access in the next ring slot, unboxed: its node, then [addr lsl
    2 lor faulted lsl 1 lor write]. *)

val claim : audit -> int
(** Take the next ring slot for some other event, which the audit's owner
    keeps at the returned slot index. *)

val recorded : audit -> int -> Trace.event option
(** The access in ring slot [i], or [None] for a {!claim}ed slot. *)

type observer = {
  on_event : (Trace.event -> unit) option;
      (** Every published event except completed accesses, which arrive
          through [on_access] only. *)
  on_touch : (node:int -> addr:addr -> write:bool -> unit) option;
      (** Every data access ({!read} or {!write}), before its fault, if
          any, is serviced. *)
  on_access : (node:int -> addr:addr -> write:bool -> faulted:bool -> unit) option;
      (** Every completed data access but this observer's audited hits,
          after its fault and its Compute charge; [faulted] marks an
          access that tripped a fault. *)
  on_charge : (node:int -> bucket -> us:float -> unit) option;
      (** Every {!charge}, before the stats-table add.  Replaying these
          additions and each access's {!local_access_us} in arrival order
          reproduces the stats table bit for bit. *)
  on_alloc : (words:int -> home:int -> unit) option;  (** After each {!alloc}. *)
  on_heap_alloc : (node:int -> words:int -> spilled:bool -> unit) option;
      (** After a logical shared-heap allocation; [spilled] = it triggered
          the {!alloc} that arrived just before. *)
  on_phase : (enter:bool -> id:int -> name:string -> scheduled:bool -> unit) option;
      (** At runtime phase boundaries ([id] = -1: unscheduled). *)
  on_reset : (unit -> unit) option;  (** After {!reset_stats}. *)
  audit : audit option;
      (** While this is the only observer with [on_touch] or [on_access],
          and has no [on_touch], an audited hit (see {!read}) skips its
          [on_access]: the machine does what that hook would. *)
}

val no_observer : observer
(** Every hook [None], the base for [{ no_observer with on_... = Some f }]. *)

val observe : t -> observer -> unit -> unit
(** Attach an observer; the result detaches it. *)

val observed : t -> bool
(** [true] while an observer is attached; guards event construction. *)

val subscribe : t -> (Trace.event -> unit) -> unit
(** Attach an event subscriber for the machine's life; it also receives
    completed accesses, as boxed {!Trace.Access} events. *)

val emit : t -> Trace.event -> unit
(** Publish an event to the [on_event] hooks (protocol, schedule and
    runtime layers). *)

val notify_heap_alloc : t -> node:int -> words:int -> spilled:bool -> unit
(** Call the [on_heap_alloc] hooks ([Shared_heap] does). *)

val notify_phase : t -> enter:bool -> id:int -> name:string -> scheduled:bool -> unit
(** Call the [on_phase] hooks (the runtime does). *)

(** {1 Metrics}

    A machine created while {!Ccdsm_obs.Obs.set_global} holds a registry
    resolves its instrument handles there once (tag-transition counters,
    per-kind message counters) and increments them as it runs.  With no
    registry installed the machine performs no metrics work at all. *)

val obs : t -> Ccdsm_obs.Obs.Registry.t option
(** The registry this machine meters into, if any — protocol and runtime
    layers resolve their own instruments here at creation time. *)

(** {1 Allocation} *)

val alloc : t -> words:int -> home:int -> addr
(** Allocate [words] of shared memory, rounded up to whole blocks, all homed
    on node [home].  The home node starts with a ReadWrite tag for each new
    block (it owns the only copy). *)

val num_blocks : t -> int
val block_of : t -> addr -> block
val home : t -> block -> int

(** {1 Tags (protocol-side)} *)

val tag : t -> node:int -> block -> Tag.t
val set_tag : t -> node:int -> block -> Tag.t -> unit

(** {1 Application data path}

    An application touches shared memory one word at a time, through
    {!read} and {!write}. *)

val read : t -> node:int -> addr -> float
(** [read t ~node a] is the word at [a] as [node] sees it.  The unobserved
    hit inlines at its call site (the release profile lets the inlining
    cross modules): the fused bounds check, the {!observed} test and the
    tag test, then the count, the Compute charge and the load.  Anything
    else takes one out-of-line call.  It first tries the audited hit: an
    in-range, tag-permitted access whose one touch or access observer
    carries an {!audit} with no stable point [pending] and, for a write
    with [races] on, the word's stamp inside [stamps] and below [epoch] or
    the writer's own.  That access is counted, charged, {!record}ed and a
    write stamped, with no hook called.  A bad node or address, any other
    observer or a tag that faults runs the whole access: bounds checks,
    hooks, the protocol's fault handler, count and charge.  So the float
    reaches the caller's arithmetic unboxed, and a hit allocates nothing.
    @raise Invalid_argument on a bad node or address. *)

val write : t -> node:int -> addr -> float -> unit
(** [write t ~node a v] stores [v] at [a] from [node]: the dual of {!read},
    inlined the same way, so a computed value is stored without being
    boxed first. *)

(** {1 Protocol data path (no tags, no cost)} *)

val peek : t -> addr -> float
val poke : t -> addr -> float -> unit

(** {1 Virtual time} *)

val charge : t -> node:int -> bucket -> float -> unit
val time : t -> node:int -> float
(** Sum of the node's buckets. *)

val bucket_time : t -> node:int -> bucket -> float
val max_time : t -> float
val barrier : t -> bucket:bucket -> unit
(** Advance every node to the global maximum time (charging the skew to
    [bucket], normally [Synch]) plus the network's barrier cost. *)

(** {1 Messages and counters} *)

val count_msg : t -> node:int -> ?dst:int -> ?kind:Trace.msg_kind -> bytes:int -> unit -> unit
(** Record one message sent by [node] (counters only; the caller charges the
    time cost to whichever node waits for it).  [dst] (default [-1] =
    unspecified/collective) and [kind] (default [Data]) annotate the traced
    {!Trace.Msg} event and do not affect counters. *)

val counters : t -> node:int -> counters
(** A snapshot of the node's counters.  The authoritative state lives in a
    flat per-node table; mutating the returned record has no effect — protocol
    layers bump counters through the [note_*] functions below. *)

val note_invalidation : t -> node:int -> unit
(** One copy invalidated at [node]. *)

val note_downgrade : t -> node:int -> unit
(** One ReadWrite copy demoted to ReadOnly at [node]. *)

val note_retry : t -> node:int -> unit
(** [node] retransmitted a demand request after a lost message. *)

val note_timeout : t -> node:int -> unit
(** A request timer expired at [node]. *)

val note_presend_fallback : t -> node:int -> unit
(** [node] took a demand miss for a block whose presend grant was lost. *)

(** {1 Fault injection}

    A machine may carry a {!Faults.t} injector; protocol layers that send
    through {!send_msg} then see per-message drop/duplicate/delay verdicts
    and implement recovery (retry with backoff, presend fallback).  Without
    an injector [send_msg] is exactly [count_msg] — no PRNG draws, no extra
    events — so fault-free runs stay bit-identical.  {!create} installs an
    injector automatically when the [CCDSM_FAULTS] environment variable
    holds a non-zero plan (see {!Faults.env_plan}). *)

val faults : t -> Faults.t option
val set_faults : t -> Faults.t option -> unit

val send_msg :
  t -> node:int -> ?dst:int -> ?kind:Trace.msg_kind -> bytes:int -> unit -> Faults.outcome
(** Record the message like {!count_msg}, then consult the fault injector.
    [Drop] means the receiver never saw it (a [Msg_drop] event follows the
    [Msg] event in the trace); [Duplicate] counts the second copy's traffic
    and delivers; [Delay] delivers but the caller should charge
    {!Faults.plan}[.delay_us] and account a spurious timeout. *)

val total_counters : t -> counters
(** Fresh record summing all nodes. *)

val reset_stats : t -> unit
(** Zero all buckets and counters; tags, data and homes are preserved.  Used
    to exclude initialization from measurements. *)
