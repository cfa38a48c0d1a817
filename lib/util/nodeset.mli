(** Compact sets of processor-node identifiers.

    Directory entries and communication-schedule marks store sets of nodes on
    the hot path of every simulated coherence action.  The representation is
    immutable and canonical: sets whose members all lie below 63 are a single
    unboxed int bitmask (every operation on them is allocation-free — the
    paper's experiments run 32 nodes), and larger sets are a trailing-zero-
    trimmed byte-string bitset.  Canonicity means equal sets are structurally
    equal, so polymorphic compare and hashing work on the value directly, and
    a set over low node ids stays one word even on a 1024-node machine.  Node
    ids must lie in [\[0, 1023\]]; the machine configuration enforces this
    bound. *)

type t

val max_nodes : int
(** Largest representable node id plus one (1024). *)

val node_bits : int
(** log2 of {!max_nodes} (10): every node id fits in this many bits, so a
    pair of a node and another int packs into one int key ({!pack}).  The
    presend planner keys its tables that way. *)

val pack : int -> node:int -> int
(** [pack x ~node] is the int key [x lsl node_bits lor node], for a
    non-negative [x] and a node id below {!max_nodes} (not checked).  Keys
    order as the pairs [(x, node)] do. *)

val packed_hi : int -> int
(** The [x] of a {!pack}ed key. *)

val packed_node : int -> int
(** The node of a {!pack}ed key. *)

val empty : t
val is_empty : t -> bool
val singleton : int -> t
val add : int -> t -> t
val remove : int -> t -> t
val mem : int -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val cardinal : t -> int
val equal : t -> t -> bool
val subset : t -> t -> bool
val choose : t -> int
(** Smallest member. @raise Not_found on the empty set. *)

val iter : (int -> unit) -> t -> unit
(** Ascending order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val of_list : int list -> t
val pp : Format.formatter -> t -> unit
