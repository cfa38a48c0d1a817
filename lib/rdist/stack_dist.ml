(* Fenwick tree over time slots.  [tree] is 1-indexed with capacity [cap];
   slot i (0-based) of the time line is bit i+1 of the tree.  A key's only
   live slot is the time of its most recent access, so the number of live
   slots strictly between two times is the number of distinct keys accessed
   in that window — the stack distance. *)

type t = {
  mutable tree : int array;  (* 1-indexed Fenwick tree of live slot counts *)
  mutable cap : int;
  mutable time : int;  (* next free slot, <= cap *)
  mutable live : int;  (* = Hashtbl.length last *)
  last : (int, int) Hashtbl.t;  (* key -> slot of its last access *)
  mutable prev : int;  (* key of the newest slot, meaningful while [time > 0] *)
}

let create () =
  { tree = Array.make 17 0; cap = 16; time = 0; live = 0; last = Hashtbl.create 64; prev = 0 }

let[@inline] add tree cap i delta =
  let i = ref (i + 1) in
  while !i <= cap do
    tree.(!i) <- tree.(!i) + delta;
    i := !i + (!i land - !i)
  done

(* Number of live slots in [0, i] (0-based, inclusive). *)
let[@inline] prefix tree i =
  let s = ref 0 in
  let i = ref (i + 1) in
  while !i > 0 do
    s := !s + tree.(!i);
    i := !i - (!i land - !i)
  done;
  !s

(* The slot space filled up: renumber the live slots 0..live-1 in time order
   and rebuild the tree at a capacity that keeps at least half the slots
   free.  Amortized O(log) per access: a compaction costs O(cap) and buys at
   least cap/2 fresh slots. *)
let compact t =
  let entries = Hashtbl.fold (fun k slot acc -> (slot, k) :: acc) t.last [] in
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  let cap = ref 16 in
  while !cap < 2 * t.live do
    cap := !cap * 2
  done;
  let tree = Array.make (!cap + 1) 0 in
  let i = ref 0 in
  List.iter
    (fun (_, k) ->
      Hashtbl.replace t.last k !i;
      add tree !cap !i 1;
      incr i)
    entries;
  t.tree <- tree;
  t.cap <- !cap;
  t.time <- t.live

let touch t k =
  if t.time = t.cap then compact t;
  let d =
    match Hashtbl.find_opt t.last k with
    | None ->
        t.live <- t.live + 1;
        -1
    | Some slot ->
        (* Live slots strictly after [slot]: each is the last access of a
           distinct key touched since [k]'s previous access. *)
        let d = prefix t.tree (t.time - 1) - prefix t.tree slot in
        add t.tree t.cap slot (-1);
        d
  in
  add t.tree t.cap t.time 1;
  Hashtbl.replace t.last k t.time;
  t.time <- t.time + 1;
  t.prev <- k;
  d

(* A repeat of the previous access has distance 0, and its slot is already
   the newest, so neither the tree nor the table changes: [compact] keeps
   that slot newest, and [reset] zeroes [time]. *)
let access t k = if t.time > 0 && k = t.prev then 0 else touch t k

let reset t =
  Hashtbl.reset t.last;
  Array.fill t.tree 0 (Array.length t.tree) 0;
  t.time <- 0;
  t.live <- 0

let distinct t = t.live

module Naive = struct
  type t = { mutable stack : int list; mutable live : int }

  let create () = { stack = []; live = 0 }

  let access t k =
    let rec go depth acc = function
      | [] ->
          t.live <- t.live + 1;
          t.stack <- k :: List.rev acc;
          -1
      | x :: rest when x = k ->
          t.stack <- k :: List.rev_append acc rest;
          depth
      | x :: rest -> go (depth + 1) (x :: acc) rest
    in
    go 0 [] t.stack

  let reset t =
    t.stack <- [];
    t.live <- 0

  let distinct t = t.live
end
