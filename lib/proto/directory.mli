(** Per-block coherence directory.

    Every block's home node tracks either a single writer (Exclusive) or the
    set of current readers (Shared) — the paper's "multiple readers or a
    single writer" directory information.  A freshly allocated block starts
    Exclusive at its home, matching {!Ccdsm_tempest.Machine.alloc} giving the
    home node the only (ReadWrite-tagged) copy. *)

open Ccdsm_util

type entry = Exclusive of int | Shared of Nodeset.t

type t

val create : Ccdsm_tempest.Machine.t -> t
(** The directory sizes itself lazily from the machine, so blocks allocated
    after creation are covered automatically. *)

val get : t -> Ccdsm_tempest.Machine.block -> entry
val set : t -> Ccdsm_tempest.Machine.block -> entry -> unit

val holders : t -> Ccdsm_tempest.Machine.block -> Nodeset.t
(** All nodes with a valid copy (the writer, or the reader set). *)

val check_invariant : t -> Ccdsm_tempest.Machine.block -> (unit, string) result
(** Verify that the directory entry agrees with the machine's tags: an
    Exclusive owner holds the only copy and it is ReadWrite; Shared readers
    hold ReadOnly copies and nobody holds ReadWrite.  Used by tests and
    failure-injection suites. *)
