(** Coalescing of neighbouring cache blocks into bulk transfers.

    Section 3.4: "the predictive protocol coalesces neighboring blocks and
    transfers them using bulk messages to amortize message startup costs."
    The same helper serves the write-update baseline. *)

val runs : int list -> (int * int) list
(** [runs blocks] groups a list of block ids into maximal runs of
    consecutive ids, returned as [(first, count)] in ascending order.  The
    input need not be sorted; duplicates are merged.  A strictly descending
    list, the order {!Cost.push} builds from an ascending scan, is folded
    without a sort. *)

val runs_of_array : int array -> (int * int) list
(** As {!runs}, over an array.  The argument is not modified (the sort
    happens on an internal copy). *)

val message_count : int list -> int
(** Number of bulk messages needed for the given blocks. *)
