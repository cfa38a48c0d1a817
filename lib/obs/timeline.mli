(** Causal span timelines over simulated time.

    A timeline is the machine-independent half of the latency-attribution
    layer: a store of spans (one per coherence interaction: fault stalls,
    message legs, barrier waits, presend planning) on per-node tracks, plus
    exact per-node per-bucket time accounting cut into barrier-delimited
    segments.  The Trace/Machine-coupled collector that feeds it lives in
    [Ccdsm_tempest.Timecap]; this module only knows tracks (ints), bucket and
    message-kind names (strings), and microseconds (floats).

    Exactness contract: {!add_charge}/{!add_fill} replay the same
    left-associated float additions the machine's stats table performs, in
    the same order, so {!total} agrees bit-for-bit with the machine's bucket
    times when the collector observed every charge — the collector's
    residual check relies on this.

    Causality contract: a span's [parent] always *ends before (or exactly
    when) the span starts* — edges mean happens-before, not containment.
    Builders lay dependent spans as chains (fault -> request leg -> reply
    leg -> resume; presend plan -> grant -> avoided miss), so the qcheck
    property [parent.t0 + parent.dur <= child.t0] holds by construction. *)

type span = {
  id : int;  (** 0-based creation order. *)
  track : int;  (** node index; the global track is [nodes]. *)
  cat : string;  (** "fault", "msg", "barrier", "presend", "grant", ... *)
  name : string;
  t0 : float;  (** simulated start, microseconds *)
  dur : float;  (** 0 for instant markers *)
  parent : int;  (** span id, [-1] = root *)
  flow_dst : int;  (** destination track for message legs, [-1] = none *)
  seg : int;  (** index of the segment the span belongs to *)
}

type segment = {
  seg_id : int;
  label : string;  (** "p<phase>/<barrier bucket>", or "tail" *)
  s_t0 : float;
  s_t1 : float;  (** the closing barrier's release time *)
  node_bucket : float array;
      (** [nodes * nbuckets], row-major: in-segment time per node and
          bucket, excluding the closing barrier's fill charges. *)
  node_kind : float array;
      (** [nodes * nkinds]: message cost attributed per node and kind. *)
  fill : float array;  (** [nodes]: the closing barrier's skew charges. *)
}

type crit = {
  c_seg : segment;
  c_node : int;  (** the longest-chain node; [-1] for an empty segment *)
  c_len : float;  (** its in-segment time = the critical-path length *)
  c_bucket : float array;  (** [nbuckets] decomposition of [c_len] *)
  c_kind : float array;  (** [nkinds] message-cost shares along the path *)
}

type t

val create : nodes:int -> buckets:string array -> kinds:string array -> t
val nodes : t -> int
val bucket_names : t -> string array
val kind_names : t -> string array

val span :
  t ->
  track:int ->
  cat:string ->
  name:string ->
  t0:float ->
  dur:float ->
  ?parent:int ->
  ?flow_dst:int ->
  unit ->
  int
(** Append a span (dur 0 = instant marker) and return its id. *)

val add_charge : t -> node:int -> bucket:int -> us:float -> unit
(** Account one machine charge into the running totals and the open
    segment. *)

val add_fill : t -> node:int -> bucket:int -> us:float -> unit
(** Account a closing-barrier skew charge: totals as usual, but the open
    segment's [fill] row instead of [node_bucket] — critical paths must not
    see the barrier equalize every node's time. *)

val add_kind_cost : t -> node:int -> kind:int -> cost:float -> unit

val seal : t -> label:string -> t1:float -> unit
(** Close the open segment at [t1] (a barrier release, or the end of the
    run for the ["tail"] segment). *)

val reset : t -> unit
(** Drop all spans, segments and totals (mirrors [Machine.reset_stats]). *)

val total : t -> node:int -> bucket:int -> float
val nspans : t -> int

val span_end : t -> int -> float
(** [t0 +. dur] of the span with this id; [neg_infinity] when the id is out
    of range (notably [-1], "no parent") — so builders can clamp a dependent
    span's start with [Float.max t0 (span_end t parent)] unconditionally. *)

val spans : t -> span list
(** In creation order. *)

val segments : t -> segment list
(** Sealed segments, in time order (the open segment is not included —
    {!seal} it first). *)

val critical_paths : t -> crit list
(** One per sealed segment: the longest dependency chain is the
    max-in-segment-time node's work (nodes only synchronize at barriers, so
    chains never cross tracks inside a segment). *)

val summary : t -> string
(** Rendered text: span counts by category, then the per-segment
    critical-path table (length, bucket decomposition, top message kinds). *)

val to_chrome : t -> string
(** Chrome trace-event JSON (load in chrome://tracing or Perfetto): one
    thread per node track, "X" duration events per span, "i" instants, and
    s/f flow arrows for message legs with a [flow_dst].  Deterministic:
    byte-identical for identical timelines. *)

val to_jsonl : t -> string
(** Self-describing JSONL: a header line, one line per span, one per sealed
    segment, and a totals line.  {!of_jsonl} inverts it. *)

val of_jsonl : string -> (t, string) result
(** Parse {!to_jsonl} output (the content, not a path). *)

val load : string -> (t, string) result
(** Read and parse a timeline JSONL file; [Error] on a missing, empty or
    non-timeline file (one-line messages, the [Profile.load] convention). *)
