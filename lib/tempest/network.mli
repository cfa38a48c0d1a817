(** Interconnect cost model.

    The simulator does not route messages; it prices them.  A message costs a
    fixed software startup plus a per-byte transfer cost, which is the
    economics that make the paper's bulk-coalesced presend messages cheaper
    than per-block demand misses.  Defaults approximate Blizzard on the CM-5,
    where the paper reports a 200 microsecond average remote access latency. *)

type t = {
  msg_startup_us : float;  (** software send+receive overhead per message *)
  per_byte_us : float;  (** transfer cost per payload byte *)
  fault_us : float;  (** access-fault vectoring overhead to a user handler *)
  barrier_hop_us : float;  (** per-tree-level cost of a barrier *)
  ctrl_bytes : int;  (** payload size of a control (non-data) message *)
}

val default : t
(** CM-5/Blizzard-flavoured parameters (see DESIGN.md section 5). *)

val hardware_dsm : t
(** A hardware-assisted DSM flavour (an order of magnitude faster messages),
    used by the block-size/latency sensitivity ablation that backs the
    paper's section 5.4 discussion. *)

val msg_cost : t -> bytes:int -> float
(** Cost in microseconds of one message carrying [bytes] of payload. *)

val barrier_cost : t -> nodes:int -> float
(** Cost of a global barrier over [nodes] processors. *)
