(** The timeline collector: turns one machine's Trace events, accesses and
    charges into a causal {!Ccdsm_obs.Timeline.t}.

    [attach m] attaches one {!Machine.observer} taking events, completed
    accesses, charges and stats resets (so [Machine.observed] becomes
    true).  From then on every bucket charge, and the
    Compute charge of every access, is replayed into the timeline's exact
    per-node accounting, and the event stream is folded into spans:

    - a demand miss opens a chain on the faulting node — a "fault" stall
      span, then one "msg" span per protocol leg (laid end-to-start, with
      flow arrows src track -> dst track), closed when the node resumes
      computing;
    - presend planning opens per-home "presend" chains; every granted block
      drops a "grant" marker on the destination track (parented under the
      home's plan chain) and the first non-faulting access to a granted
      block drops an "avoided" marker parented under the grant — the
      paper's avoided-miss causality made visible;
    - a barrier seals the open segment: per-node "barrier" spans cover
      arrival -> release, and the skew charges go to the segment's [fill]
      row so critical paths exclude them.

    The span-parent edges are happens-before by construction (a parent
    always ends at or before its child starts).

    Charges observed by the collector are *identical float additions in
    identical order* to the machine's stats table, so {!check} demands
    bit-for-bit equality — any drift means a charge path is missing a
    hook. *)

module Timeline = Ccdsm_obs.Timeline

type t

val attach : Machine.t -> t
(** Attach the collector's observer.  Collectors are independent: several
    may watch one machine. *)

val detach : t -> unit
(** Stop collecting: the observer is removed, so a machine with no other
    observer is back on the unobserved path. *)

val finish : t -> Timeline.t
(** Seal the trailing segment (label ["tail"]) if any charge landed since
    the last barrier, and return the timeline.  The collector keeps
    collecting; call {!detach} to stop. *)

type residual = { r_node : int; r_bucket : string; r_expected : float; r_got : float }

val check : t -> residual list
(** Compare the timeline's per-node bucket totals against the machine's
    stats table, bit-for-bit ([Int64.bits_of_float] equality).  Empty =
    exact; anything else means a charge escaped the collector. *)

val timeline : t -> Timeline.t
(** The underlying timeline (without sealing the trailing segment). *)
