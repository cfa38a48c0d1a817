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
  local_access_us : float;  (** compute charge per tag-permitted shared access *)
  shards : int;
      (** directory shards, a power of two; a block's shard is
          [home land (shards - 1)].  Pure layout: results are independent of
          the shard count. *)
  step_jobs : int;
      (** domains the event-sharded step loop may use for one machine's
          per-shard coherence work (1 = sequential).  Output is byte-identical
          at any value. *)
}

val default_config :
  ?num_nodes:int ->
  ?block_bytes:int ->
  ?net:Network.t ->
  ?shards:int ->
  ?step_jobs:int ->
  unit ->
  config
(** 32 nodes, 32-byte blocks, {!Network.default}, 8 shards, 1 step job unless
    overridden. *)

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

(** {1 Event tracing}

    Machines publish {!Trace.event}s describing every observable coherence
    action: faults, completed accesses, messages, tag transitions, barriers
    and allocations (upper layers add phase, schedule and presend events
    through {!emit}).  Emission is free when no subscriber is attached.  A
    machine created while {!Trace.set_global} holds a sink starts with that
    sink subscribed (and announces itself with an [Init] event). *)

val subscribe : t -> (Trace.event -> unit) -> unit
(** Add an event subscriber.  Subscribers run synchronously, in subscription
    order, at the emission point — an exception raised by a subscriber (the
    sanitizer's [Violation]) propagates to the faulting access. *)

val traced : t -> bool
(** [true] when at least one subscriber is attached; guards event
    construction on hot paths. *)

(** {1 Metrics}

    A machine created while {!Ccdsm_obs.Obs.set_global} holds a registry
    resolves its instrument handles there once (tag-transition counters,
    per-kind message counters) and increments them as it runs — the metrics
    dual of the trace sink, with the same pay-for-what-you-use rule: with no
    registry installed the machine performs no metrics work at all. *)

val obs : t -> Ccdsm_obs.Obs.Registry.t option
(** The registry this machine metered into, if any — protocol and runtime
    layers resolve their own instruments here at creation time. *)

val metered : t -> bool
(** [true] when a registry was installed at creation. *)

(** {1 Access profiling}

    The third observer family next to tracing and metering, used by the
    first-touch profile collector ([Ccdsm_rdist]): one callback per
    completed data access, allocation, heap allocation and runtime phase
    transition.  The same pay-for-what-you-use rule applies — with no
    profiler installed the hot paths only test one flag — and unlike
    tracing, profiling is pure observation: it never affects simulated
    results, gating or message traffic, so a profiled run stays
    byte-identical to an unprofiled one. *)

type profiler = {
  prof_access : node:int -> addr:addr -> write:bool -> unit;
      (** Called for every application data access ({!read}, {!write} and
          the word-at-a-time expansion of the range accessors), before the
          access's fault — if any — is serviced. *)
  prof_alloc : words:int -> home:int -> unit;
      (** Called by {!alloc} after the allocation completes. *)
  prof_heap_alloc : node:int -> words:int -> spilled:bool -> unit;
      (** Called by the shared heap after a logical heap allocation;
          [spilled] reports whether it triggered an underlying {!alloc}
          (a fresh bump arena or a dedicated large object), which arrived
          through {!field-prof_alloc} immediately before. *)
  prof_phase : enter:bool -> id:int -> name:string -> scheduled:bool -> unit;
      (** Called by the runtime at parallel-phase boundaries ([id] = -1 for
          unscheduled operations). *)
  prof_flush : phase:int -> unit;
      (** Called when the application discards a phase's presend schedule
          ([Runtime.flush_phase]); the model must mirror the flush to keep
          its replayed schedules in lockstep. *)
}

val set_profiler : t -> profiler option -> unit
val profiled : t -> bool

val profile_heap_alloc : t -> node:int -> words:int -> spilled:bool -> unit
(** Forward a heap allocation to the profiler (no-op when none installed);
    called by [Shared_heap]. *)

val profile_phase : t -> enter:bool -> id:int -> name:string -> scheduled:bool -> unit
(** Forward a phase transition to the profiler; called by the runtime. *)

val profile_flush : t -> phase:int -> unit
(** Forward a schedule flush to the profiler; called by the runtime. *)

(** {1 Timeline charges}

    The fourth observer family, used by the causal-span collector
    ([Timecap]): one callback per bucket charge carrying the exact
    microsecond amount entering the stats table, plus a batched callback for
    the word-at-a-time Compute charges.  Same pay-for-what-you-use rule as
    the profiler — with no timeline installed the hot paths only test one
    flag, so an untimed run is byte-identical to the pre-timeline
    simulator.  A collector that replays the callbacks' additions in arrival
    order reproduces every bucket of the stats table bit-for-bit; [Timecap]
    checks exactly that as its residual invariant. *)

type timeline = {
  tml_charge : node:int -> bucket -> us:float -> unit;
      (** Called by {!charge} (faults, exchanges, presends, barriers,
          explicit task charges) before the stats-table add, so the
          collector can still read the node's pre-charge {!time}. *)
  tml_compute : node:int -> us:float -> count:int -> unit;
      (** [count] repetitions of a [us] Compute charge ({!read}/{!write} and
          the range accessors' per-word expansion). *)
  tml_reset : unit -> unit;  (** Called by {!reset_stats}. *)
}

val set_timeline : t -> timeline option -> unit
val timed : t -> bool

val emit : t -> Trace.event -> unit
(** Publish an event to all subscribers (used by the protocol, schedule and
    runtime layers; no-op without subscribers). *)

(** {1 Allocation} *)

val alloc : t -> words:int -> home:int -> addr
(** Allocate [words] of shared memory, rounded up to whole blocks, all homed
    on node [home].  The home node starts with a ReadWrite tag for each new
    block (it owns the only copy). *)

val num_blocks : t -> int
val block_of : t -> addr -> block
val base_addr : t -> block -> addr
val home : t -> block -> int

val home_of_block : t -> block -> int
(** Alias of {!home}: the explicit home-node hash behind directory sharding. *)

(** {1 Sharding}

    Coherence work is partitioned into [num_shards] shards keyed by home
    node ([shard = home land (num_shards - 1)]).  Blocks of distinct shards
    are disjoint, so the event-sharded step loop can run per-shard coherence
    work on separate domains that never touch the same block's state.
    Sharding is pure partitioning — any shard count produces identical
    results. *)

val num_shards : t -> int
val shard_of_home : t -> int -> int
val shard_of_block : t -> block -> int

val step_jobs : t -> int
(** The configured intra-machine parallelism budget (see {!config}). *)

(** {1 Tags (protocol-side)} *)

val tag : t -> node:int -> block -> Tag.t
val set_tag : t -> node:int -> block -> Tag.t -> unit

(** {1 Application data path} *)

val read : t -> node:int -> addr -> float
val write : t -> node:int -> addr -> float -> unit

val read_range : t -> node:int -> addr -> float array -> unit
(** [read_range t ~node a dst] reads [Array.length dst] consecutive words
    starting at [a] into [dst].  Observationally identical to a word-at-a-time
    {!read} loop — same values, counters, bucket charges and emitted trace
    events — but the tag is validated once per cache block instead of once
    per word, and the data moves with a blit.  The whole range is bounds
    checked up front, so an out-of-range tail raises before any access. *)

val write_range : t -> node:int -> addr -> float array -> unit
(** [write_range t ~node a src] writes the words of [src] starting at [a];
    the batched dual of {!read_range}, equivalent to a {!write} loop. *)

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
