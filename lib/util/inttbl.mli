(** Hash tables keyed by ints.

    The polymorphic [Hashtbl] hashes every key through [caml_hash] and
    compares keys with [compare_val], even when they are plain ints.  This
    instance of [Hashtbl.Make] hashes with one multiply and compares with
    [Int.equal].  The presend planner keys all its tables with it: schedule
    entries by block, schedules by phase, and node pairs or (node, block)
    pairs packed into one int ({!Nodeset.pack}). *)

include Hashtbl.S with type key = int

val hash_bits : int -> int -> int
(** [hash_bits bits key] is the top [bits] bits of [key] times an odd
    constant near 2{^62} divided by the golden ratio, so keys that differ
    only in their low bits still spread.  The tables here use 30 bits; the
    open-addressed {!Seen} uses its own slot-count bits. *)
