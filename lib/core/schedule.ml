open Ccdsm_util

type block = Ccdsm_tempest.Machine.block

type pre = Pre_readers of Nodeset.t | Pre_writer of int

type mark = Readers of Nodeset.t | Writer of int | Conflict of pre

let presend_mark action mark =
  match (mark, action) with
  | Conflict (Pre_readers r), `First_stable -> Readers r
  | Conflict (Pre_writer w), `First_stable -> Writer w
  | _ -> mark

type t = {
  entries : (block, mark) Hashtbl.t;
  mutable conflicts : int;
  mutable conflict_hits : int;
  mutable rewrites : int;
  (* Ascending key cache for [iter_sorted].  Schedules are built during the
     first execution of a phase and then replayed by every later presend, so
     the sort is paid once per key-set change, not once per phase occurrence.
     Only the addition of a new block invalidates it — re-marking an existing
     block keeps the key set intact. *)
  mutable sorted : block array option;
}

let create () =
  { entries = Hashtbl.create 64; conflicts = 0; conflict_hits = 0; rewrites = 0; sorted = None }

let record_read t b ~reader =
  match Hashtbl.find_opt t.entries b with
  | None ->
      t.sorted <- None;
      Hashtbl.replace t.entries b (Readers (Nodeset.singleton reader))
  | Some (Readers r) -> Hashtbl.replace t.entries b (Readers (Nodeset.add reader r))
  | Some (Writer w) ->
      t.conflicts <- t.conflicts + 1;
      Hashtbl.replace t.entries b (Conflict (Pre_writer w))
  | Some (Conflict _) ->
      (* A colliding insertion too, even though the mark is absorbing — count
         it in [conflicts] (total collision volume) and in [conflict_hits]
         (collisions that landed on an already-conflicted block). *)
      t.conflicts <- t.conflicts + 1;
      t.conflict_hits <- t.conflict_hits + 1

let record_write t b ~writer =
  match Hashtbl.find_opt t.entries b with
  | None ->
      t.sorted <- None;
      Hashtbl.replace t.entries b (Writer writer)
  | Some (Writer w) ->
      if w <> writer then begin
        t.rewrites <- t.rewrites + 1;
        Hashtbl.replace t.entries b (Writer writer)
      end
  | Some (Readers r) ->
      t.conflicts <- t.conflicts + 1;
      Hashtbl.replace t.entries b (Conflict (Pre_readers r))
  | Some (Conflict _) ->
      t.conflicts <- t.conflicts + 1;
      t.conflict_hits <- t.conflict_hits + 1

let find t b = Hashtbl.find_opt t.entries b
let cardinal t = Hashtbl.length t.entries
let conflicts t = t.conflicts
let conflict_hits t = t.conflict_hits
let rewrites t = t.rewrites

(* -- fault-injection hooks ----------------------------------------------- *)

let remove t b =
  if Hashtbl.mem t.entries b then begin
    Hashtbl.remove t.entries b;
    t.sorted <- None
  end

let set_mark t b mark =
  if not (Hashtbl.mem t.entries b) then t.sorted <- None;
  Hashtbl.replace t.entries b mark

let sorted_keys t =
  match t.sorted with
  | Some keys -> keys
  | None ->
      let keys = Array.make (Hashtbl.length t.entries) 0 in
      let i = ref 0 in
      Hashtbl.iter
        (fun b _ ->
          keys.(!i) <- b;
          incr i)
        t.entries;
      Array.sort (fun (a : block) b -> Stdlib.compare a b) keys;
      t.sorted <- Some keys;
      keys

let iter_sorted t f =
  Array.iter (fun b -> f b (Hashtbl.find t.entries b)) (sorted_keys t)

let nth_sorted t i = (sorted_keys t).(i)

let clear t =
  Hashtbl.reset t.entries;
  t.conflicts <- 0;
  t.conflict_hits <- 0;
  t.rewrites <- 0;
  t.sorted <- None

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule (%d entries, %d conflicts):" (cardinal t) t.conflicts;
  iter_sorted t (fun b mark ->
      match mark with
      | Readers r -> Format.fprintf ppf "@ block %d -> readers %a" b Nodeset.pp r
      | Writer w -> Format.fprintf ppf "@ block %d -> writer %d" b w
      | Conflict (Pre_readers r) ->
          Format.fprintf ppf "@ block %d -> conflict (was readers %a)" b Nodeset.pp r
      | Conflict (Pre_writer w) ->
          Format.fprintf ppf "@ block %d -> conflict (was writer %d)" b w);
  Format.fprintf ppf "@]"
