(** Aggregates: distributed arrays of multi-field elements.

    The C\*\* data collections (section 4.1).  An aggregate is a 1-D or 2-D
    array of elements, each [elem_words] shared words wide (one word per
    field).  Elements are laid out so that an element's data is homed on the
    node that owns it under the aggregate's distribution; a node's elements
    are contiguous, so neighbouring elements of one owner occupy neighbouring
    cache blocks (which the presend phase coalesces into bulk messages).

    All accessors take the reading/writing node explicitly — this is the
    application-visible shared-memory path and goes through the machine's
    tag check, faulting into the installed coherence protocol as needed. *)

module Machine = Ccdsm_tempest.Machine

type t

val create_1d :
  Machine.t -> name:string -> ?elem_words:int -> n:int -> dist:Distribution.t -> unit -> t
(** @raise Invalid_argument if the distribution does not fit. *)

val create_2d :
  Machine.t ->
  name:string ->
  ?elem_words:int ->
  rows:int ->
  cols:int ->
  dist:Distribution.t ->
  unit ->
  t

val name : t -> string
val dims : t -> int array
val size : t -> int
(** Total element count. *)

val elem_words : t -> int
val dist : t -> Distribution.t

val owner1 : t -> int -> int
val owner2 : t -> int -> int -> int

val addr1 : t -> int -> field:int -> Machine.addr
val addr2 : t -> int -> int -> field:int -> Machine.addr

val read1 : t -> node:int -> int -> field:int -> float
val write1 : t -> node:int -> int -> field:int -> float -> unit
val read2 : t -> node:int -> int -> int -> field:int -> float
val write2 : t -> node:int -> int -> int -> field:int -> float -> unit

val peek1 : t -> int -> field:int -> float
(** Protocol-free read (validation/reference paths only — no tags, no cost). *)

val peek2 : t -> int -> int -> field:int -> float
val poke1 : t -> int -> field:int -> float -> unit
val poke2 : t -> int -> int -> field:int -> float -> unit
