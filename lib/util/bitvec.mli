(** Fixed-width mutable bit vectors.

    Backing store for the iterative bit-vector data-flow framework in
    [Ccdsm_cstar.Dataflow] and for block-presence maps in the protocol
    layer.  All binary operations require operands of equal width. *)

type t

val create : int -> t
(** [create n] is an all-zeros vector of width [n]. [n >= 0]. *)

val length : t -> int

val copy : t -> t

val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit

val is_empty : t -> bool
val count : t -> int
(** Number of set bits. *)

val equal : t -> t -> bool

val union_into : dst:t -> t -> bool
(** [union_into ~dst src] sets [dst <- dst | src]; returns [true] iff [dst]
    changed.  The change flag drives data-flow fixpoint detection. *)

val inter_into : dst:t -> t -> bool
val diff_into : dst:t -> t -> bool
(** [diff_into ~dst src] sets [dst <- dst & ~src]; returns whether changed. *)

val blit : src:t -> dst:t -> unit

val fill : t -> bool -> unit

val to_list : t -> int list
(** Indices of set bits in increasing order. *)

val of_list : int -> int list -> t

val pp : Format.formatter -> t -> unit
(** Prints as e.g. [{1,4,7}]. *)
