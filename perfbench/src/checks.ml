(* Output checks: every operation a workload performs is counted, and the
   ones whose output fails its check are counted as failed. *)

type t = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let create () = { attempted = 0; failed = 0; notes = [] }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.notes < 20 then t.notes <- what :: t.notes
  end

let merge ~into t =
  into.attempted <- into.attempted + t.attempted;
  into.failed <- into.failed + t.failed;
  into.notes <- t.notes @ into.notes
