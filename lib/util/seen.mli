(** A set of ints that empties in O(1).

    The keys are open-addressed in one flat int array.  Slot [i] holds its
    key at [2i] and, at [2i+1], the generation that stored it; a slot is
    live only while that stamp is the current generation.  So {!clear}
    empties the set with one increment, and the table keeps its grown size
    from one generation to the next.  The profiler's first-touch filter
    clears it at every segment, the predictive protocol's presended set at
    every phase entry. *)

type t

val create : unit -> t
(** An empty set of 64 slots, small enough for the minor heap; it doubles
    when half full. *)

val clear : t -> unit

val add : t -> int -> bool
(** Add a key; [false] if it was already in the set. *)

val mem : t -> int -> bool
