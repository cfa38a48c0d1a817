(** Online LRU stack-distance computation.

    The stack distance (reuse distance over an LRU stack of distinct keys)
    of an access to key [k] is the number of {e distinct other} keys
    accessed since the previous access to [k]; the first access to a key is
    a cold access with no finite distance.  This is the quantity the
    reuse-distance literature predicts cache behaviour from (Mattson et al.;
    Barai et al. for per-phase shared-cache prediction, PAPERS.md).

    The implementation is the classic Bennett–Kruskal/Olken structure: a
    hash table mapping each key to the time slot of its last access plus a
    Fenwick (binary-indexed) tree of live slots, giving O(log n) per access
    with n the number of accesses since the last compaction, and O(1) for a
    repeat of the immediately preceding key.  The slot space
    is compacted in place when it fills, so memory stays proportional to the
    number of {e distinct} keys. *)

type t

val create : unit -> t

val access : t -> int -> int
(** [access t k] records an access to key [k] and returns its stack
    distance: [-1] for a cold access (first touch of [k] since creation or
    the last {!reset}), [0] for an immediate re-access, and in general the
    number of distinct other keys touched since the last access to [k]. *)

val reset : t -> unit
(** Forget all history: every key becomes cold again (a phase reset). *)

val distinct : t -> int
(** Number of distinct keys seen since creation or the last {!reset}. *)

module Naive : sig
  (** Brute-force O(n) per access reference (an explicit LRU stack held as a
      list) with the same contract, used by the differential qcheck suite to
      pin {!access} exactly. *)

  type t

  val create : unit -> t
  val access : t -> int -> int
  val reset : t -> unit
  val distinct : t -> int
end
