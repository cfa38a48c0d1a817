(** The price list of coherence actions, shared by the simulator and the
    analytical model.

    Every message shape and microsecond price that the protocols charge
    ({!Engine}'s demand misses and invalidations, the predictive protocol's
    presend) is defined here once, and the first-touch replay model
    (lib/rdist) prices its replay from the same table, so a miss chain or a
    presend flush cannot cost one thing in the simulator and another in the
    prediction.  Prices are built from {!Ccdsm_tempest.Network.msg_cost},
    the per-message primitive.  The module is pure: it describes messages
    and prices, and the caller counts and charges them. *)

module Network = Ccdsm_tempest.Network
module Trace = Ccdsm_tempest.Trace

type t
(** The prices for one network and one block size. *)

val make : Network.t -> block_bytes:int -> t

val ctrl : t -> int
(** Payload bytes of a control (non-data) message. *)

type leg = int * int * Trace.msg_kind * int
(** One message: [(src, dst, kind, payload bytes)]. *)

(** {1 Demand fetches} *)

type fetch =
  | Reply  (** request to the home, block data back from it *)
  | Recall  (** the home recalls the owner's copy: recall out, data back *)
  | Chain
      (** request to the home, recall to the owner, data back to the home
          and on to the requester: the 4-message chain of section 3.2 *)
  | Forward
      (** request to the home, recall forwarded to the owner, data straight
          from the owner to the requester (the migratory handoff) *)
  | Upgrade  (** a reader asks the home for write permission: request, bare grant *)

val owner_fetch : node:int -> home:int -> owner:int -> fetch
(** How [node] obtains a block held Exclusive at [owner] through the
    block's [home]: [Reply] when the owner is the home, [Recall] when [node]
    is the home, [Chain] otherwise. *)

val fetch_legs : t -> fetch -> node:int -> home:int -> owner:int -> leg list
(** The fetch's messages in send order between the requester [node], the
    block's [home] and its [owner] ([Reply] and [Upgrade] ignore [owner],
    [Recall] ignores [node]). *)

val fetch_msgs : fetch -> int
val fetch_bytes : t -> fetch -> int
(** Message count and payload bytes of {!fetch_legs}. *)

val fetch_us : t -> fetch -> float
(** The requester's stall for the whole fetch: its legs run one after the
    other, so their message costs add up. *)

(** {1 Invalidations} *)

val iter_inval_legs :
  t -> home:int -> victim:int -> (int -> int -> Trace.msg_kind -> int -> unit) -> unit
(** [iter_inval_legs t ~home ~victim f] calls [f src dst kind bytes] for the
    home's invalidation notice to [victim] and then for the
    acknowledgement (a callback rather than a {!leg} list, because the
    engine counts these on every invalidating write miss). *)

val inval_msgs : int -> int
val inval_bytes : t -> int -> int
(** Message count and payload bytes of invalidating [k] remote copies. *)

val inval_us : t -> int -> float
(** The stall for invalidating [k >= 1] remote copies at once.  The
    notices overlap, so this is one round trip plus, for each extra notice,
    a quarter of the message startup (its injection overhead). *)

(** {1 Bulk messages} *)

val run_bytes : t -> int -> int
(** Payload of one message carrying a run of [len] adjacent blocks with a
    control header (a write-update push, a commutative merge, a presend
    grant without coalescing when [len = 1]). *)

val notice_bytes : t -> int -> int
(** Payload of one batched notice naming [k] blocks, 4 bytes per block id
    (presend and merge invalidations, grant-only upgrades). *)

(** {1 Presend} *)

val presend_block_us : float
(** The home node's software cost to process one schedule entry during a
    presend scan (1 µs). *)

val record_us : float
(** The added fault-handler cost to record one fault into a schedule (2
    µs): the paper's "cost of building communication schedules in augmented
    protocol handlers". *)

val grant_bytes : t -> with_data:bool -> int
(** One presend grant sent on its own: the block's data, or a bare
    permission grant for a writer that already holds a readable copy. *)

(** {2 Queues}

    A presend scan, a write-update push and a commutative merge all
    collect their work per ordered node pair [(src, dst)] before sending
    it.  A queue holds one item per pair: a block list ({!push}) or a count
    ({!bump}).  Its table keys each pair as one int,
    [Nodeset.pack src ~node:dst]; node ids lie below
    {!Ccdsm_util.Nodeset.max_nodes}, so the packing is exact, and
    ascending keys are ascending [(src, dst)] pairs. *)

type 'a queue

val queue : unit -> 'a queue

val push : int list queue -> src:int -> dst:int -> int -> unit
(** Add a block to the pair's list.  The list is built by prepending, so
    blocks pushed in ascending order come out strictly descending, the
    order {!Bulk.runs} folds without sorting. *)

val bump : int queue -> src:int -> dst:int -> unit
(** Count one more item for the pair. *)

val iter_sorted : 'a queue -> (src:int -> dst:int -> 'a -> unit) -> unit
(** The pairs with an item, in ascending [(src, dst)] order. *)

type queues = {
  recall : int list queue;  (** [(owner, home)]: dirty blocks the home brings back *)
  inval : int queue;  (** [(home, victim)]: copies to invalidate *)
  data : int list queue;  (** [(home, dest)]: blocks granted with data *)
  grant : int queue;  (** [(home, dest)]: permission-only upgrades *)
}
(** A presend's per-pair work, filled by the schedule scan.  Every pair
    contains the block's home node. *)

val queues : unit -> queues

type msg = {
  payer : int;  (** the home node that waits for this message *)
  src : int;
  dst : int;
  kind : Trace.msg_kind;
  bytes : int;
  grants : int;  (** blocks this message grants to [dst] with data *)
  us : float;  (** [Network.msg_cost] of [bytes] *)
}

val flush : t -> coalesce:bool -> queues -> msg list
(** The messages of a presend flush, in send order (keys ascending within
    each group):
    - per [(owner, home)]: the recall request, then the blocks coming back
      as a block list;
    - per [(home, victim)]: one batched invalidation notice and its ack;
    - per [(home, dest)]: the granted blocks as a block list, the first
      message also naming any permission-only upgrades to [dest];
    - the remaining permission-only upgrades, one notice per pair.
    A block list is one gather message when [coalesce] is set, where each
    run of neighbouring blocks adds an 8-byte address header (section 3.4);
    otherwise every block travels alone. *)
