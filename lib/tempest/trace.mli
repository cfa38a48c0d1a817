(** Structured coherence event tracing.

    The paper's results are explained entirely by *which cache blocks move
    between which nodes*; this module makes that stream observable.  Every
    layer of the simulator publishes typed events to the machine's
    observers ({!Machine.observe}, {!Machine.subscribe}): access faults,
    protocol messages with source/destination/size/kind, per-node tag
    transitions, barriers, phase brackets, communication-schedule records
    and flushes, and presend legs.

    Publishing is zero-cost when nothing observes the machine (emission
    sites are guarded by its one [observed] flag).  The consumers are the
    JSONL sink used by [repro --trace], the golden-trace regression tests,
    the online invariant sanitizer ({!Ccdsm_proto.Sanitizer}), the timeline
    collector and the profile collector. *)

type msg_kind =
  | Req  (** demand request (read or write miss) *)
  | Data  (** a message carrying block data *)
  | Inval  (** invalidation notice *)
  | Ack  (** invalidation acknowledgement *)
  | Grant  (** permission-only upgrade, no data *)
  | Recall  (** home recalling a dirty copy from its owner *)
  | Update  (** write-update push to a consumer *)
  | Reduce  (** reduction-tree traffic (built-in language support) *)

val msg_kind_name : msg_kind -> string

val all_msg_kinds : msg_kind list
(** Every kind, in declaration order (= {!msg_kind_index} order). *)

val msg_kind_index : msg_kind -> int
(** Dense 0-based index, for pre-resolved per-kind counter arrays. *)

type event =
  | Init of { nodes : int; block_bytes : int }
      (** machine creation (emitted only to the global sink, which is the
          only subscriber that can exist that early) *)
  | Alloc of { first_block : int; blocks : int; home : int }
  | Fault of { node : int; block : int; write : bool }
      (** an access the tag did not permit, about to vector to the protocol *)
  | Access of { node : int; addr : int; write : bool; faulted : bool }
      (** a completed application access (emitted after fault handling) *)
  | Msg of { src : int; dst : int; bytes : int; kind : msg_kind }
      (** [dst = -1] for collective traffic with no single destination *)
  | Tag_change of { node : int; block : int; before : Tag.t; after : Tag.t }
  | Barrier of { bucket : string }
  | Phase_begin of { phase : int }
  | Phase_end of { phase : int }
  | Sched_record of { phase : int; block : int; node : int; write : bool }
  | Sched_conflict of { phase : int; block : int }
  | Sched_flush of { phase : int }
  | Presend of { phase : int; block : int; dst : int; write : bool }
      (** one presend leg: [dst] is granted a copy ([write]: ownership) *)
  | Msg_drop of { src : int; dst : int; kind : msg_kind }
      (** fault injection: the immediately preceding {!Msg} was lost in
          flight — the sender paid for it but the receiver never saw it *)
  | Retry of { node : int; block : int; attempt : int }
      (** [node]'s demand request for [block] timed out and is being
          retransmitted ([attempt] starts at 1 for the first retry) *)
  | Presend_fallback of { phase : int; block : int; node : int; write : bool }
      (** a demand miss on a block whose presend grant to [node] was lost —
          the predictive protocol degrading gracefully to Stache *)
  | Sched_corrupt of { phase : int; block : int; node : int option }
      (** fault injection rewrote a schedule entry between phases: [None]
          invalidated it, [Some n] retargeted it to node [n] *)

val type_name : event -> string
(** Stable lowercase discriminator, identical to the JSON "type" field. *)

val to_json : event -> string
(** One-line JSON object with a fixed field order; the JSONL trace format.
    Deterministic: equal events render to equal strings. *)

val msg_kind_of_string : string -> msg_kind option
(** Inverse of {!msg_kind_name}; [None] on unknown names. *)

val of_json : string -> (event, string) result
(** Parse one JSONL trace line back into its event (inverse of {!to_json}),
    through {!Ccdsm_util.Json}: the line must be one strict JSON object, so
    truncated lines, trailing content and duplicate keys are errors; extra
    keys are ignored.  The trace-replay oracle ({!Ccdsm_check.Replay}) uses
    this to feed recorded traces through the sanitizer.  Errors name the
    missing/bad field. *)

val pp : Format.formatter -> event -> unit
(** Human-readable one-liner (used in sanitizer diagnostics). *)

(** {1 Global sink}

    A process-wide sink consulted by {!Machine.create}: when set, every
    machine created afterwards forwards its events to it.  This is how the
    [repro --trace FILE] flag captures experiment drivers that create many
    machines internally. *)

val set_global : (event -> unit) option -> unit
val global : unit -> (event -> unit) option

val jsonl_sink : out_channel -> event -> unit
(** A sink writing one JSON object per line, every event but the
    (voluminous) {!Access} ones; faults, messages and tag transitions are
    all written. *)
