module Machine = Ccdsm_tempest.Machine
module Tag = Ccdsm_tempest.Tag
module Trace = Ccdsm_tempest.Trace
open Ccdsm_util

type mode = Invalidate | Update | Commutative

(* A violation is structured so callers (the model checker's shrinker, the
   check CLI, artifact writers) can dispatch on the invariant that tripped
   instead of grepping an error string.  [history] is the recent-event ring
   at the moment of the failure, oldest first. *)
type violation = { check : string; message : string; history : Trace.event list }

exception Violation of violation

let to_string v =
  let b = Buffer.create 256 in
  let f = Format.formatter_of_buffer b in
  Format.fprintf f "sanitizer: %s@\nrecent events (oldest first):" v.message;
  List.iter (fun ev -> Format.fprintf f "@\n  %a" Trace.pp ev) v.history;
  Format.pp_print_flush f ();
  Buffer.contents b

(* Ring buffer of the most recent events, for violation diagnostics; a
   power of two so the slot is a mask.  Completed accesses, most of the
   stream, are kept unboxed. *)
let history_len = 16

(* The dirty set and the race table are flat arrays indexed by block and
   word.  They grow by doubling as the machine allocates, so an event
   touches O(1) slots and allocates nothing. *)
type t = {
  machine : Machine.t;
  mode : mode;
  dir : Directory.t option;
  check_races : bool;
  nodes : int;
  words_per_block : int;
  mutable dirty : int array;
      (* blocks whose tags changed since the last stable point, first-dirtied
         first; only the first [ndirty] are live, and only with a [dir] *)
  mutable ndirty : int;
  mutable dirty_mark : Bytes.t;  (* per block: '\001' while it is in [dirty] *)
  recorded : (int * Machine.block, Nodeset.t) Hashtbl.t;
      (* (phase, block) -> consumers recorded in the communication schedule *)
  mutable writers : int array;
      (* per word: [epoch + node] for the node that wrote it in the current
         barrier interval; any value below [epoch] is from an older one *)
  mutable epoch : int;  (* a positive multiple of [nodes], bumped per barrier *)
  rw_holders : (Machine.block, Nodeset.t) Hashtbl.t;
      (* Commutative mode: ReadWrite holders per block, maintained
         incrementally from Tag_change events.  [dirty] cannot serve here —
         it is emptied at every stable point, while the multi-writer window
         of a commutative phase spans many of them. *)
  history : Trace.event array;  (* per slot: a boxed event, unless [acc] holds an access *)
  acc : int array;
      (* per slot [i], an unboxed access: [acc.(2i)] is its node (-1 for a
         boxed slot), [acc.(2i+1)] its [addr lsl 2 lor faulted lsl 1 lor write] *)
  mutable hist_next : int;  (* events seen so far *)
}

let remember t ev =
  let i = t.hist_next land (history_len - 1) in
  Array.unsafe_set t.history i ev;
  Array.unsafe_set t.acc (2 * i) (-1);
  t.hist_next <- t.hist_next + 1

(* Live accesses come from the machine: [node] and [addr] are in range. *)
let remember_access t ~node ~addr ~write ~faulted =
  let i = 2 * (t.hist_next land (history_len - 1)) in
  Array.unsafe_set t.acc i node;
  Array.unsafe_set t.acc (i + 1)
    ((addr lsl 2) lor (Bool.to_int faulted lsl 1) lor Bool.to_int write);
  t.hist_next <- t.hist_next + 1

let recent t =
  let n = min t.hist_next history_len in
  List.init n (fun k ->
      let i = (t.hist_next - n + k) land (history_len - 1) in
      let node = t.acc.(2 * i) and bits = t.acc.((2 * i) + 1) in
      if node < 0 then t.history.(i)
      else
        Trace.Access
          { node; addr = bits lsr 2; write = bits land 1 = 1; faulted = bits land 2 = 2 })

let fail t ~check fmt =
  Format.kasprintf
    (fun message -> raise (Violation { check; message; history = recent t }))
    fmt

(* The first doubling of [len] (at least 16) past index [need].  Callers
   range-check [need] against the machine first, so a table never grows
   past twice what the machine has allocated. *)
let grown ~len ~need =
  let rec go n = if n > need then n else go (2 * n) in
  go (max 16 len)

(* Single-writer/multi-reader over the machine's tags for one block.  In
   Update mode the writer legitimately coexists with update-fed ReadOnly
   copies, so only the at-most-one-writer half applies. *)
let check_swmr t b =
  let m = t.machine in
  let writers = ref [] and readers = ref 0 in
  for node = 0 to t.nodes - 1 do
    match Machine.tag m ~node b with
    | Tag.Read_write -> writers := node :: !writers
    | Tag.Read_only -> incr readers
    | Tag.Invalid -> ()
  done;
  (match !writers with
  | [] | [ _ ] -> ()
  | ws ->
      fail t ~check:"swmr" "block %d has %d ReadWrite copies (nodes %s)" b (List.length ws)
        (String.concat "," (List.rev_map string_of_int ws)));
  if t.mode = Invalidate && !writers <> [] && !readers > 0 then
    fail t ~check:"swmr"
      "block %d has a ReadWrite copy at node %d alongside %d ReadOnly \
       cop%s (write-invalidate protocol)"
      b (List.hd !writers) !readers
      (if !readers = 1 then "y" else "ies")

(* Commutative mode: multiple privatized ReadWrite copies are the point of
   the protocol *within* a phase; what must hold is that every phase
   boundary has merged them back to at most one writer per block. *)
let track_rw t ~node ~block ~after =
  let cur = Option.value (Hashtbl.find_opt t.rw_holders block) ~default:Nodeset.empty in
  let next =
    if Tag.equal after Tag.Read_write then Nodeset.add node cur else Nodeset.remove node cur
  in
  if Nodeset.is_empty next then Hashtbl.remove t.rw_holders block
  else Hashtbl.replace t.rw_holders block next

let check_merged t ~phase =
  Hashtbl.iter
    (fun block holders ->
      if Nodeset.cardinal holders > 1 then
        fail t ~check:"merge"
          "phase %d ended with block %d still privatized at %d nodes (%s) — \
           the commutative merge must leave at most one ReadWrite copy"
          phase block (Nodeset.cardinal holders)
          (String.concat "," (List.map string_of_int (Nodeset.elements holders))))
    t.rw_holders

(* The stack and the marks have one length, so the stack (whose blocks are
   distinct and marked) never overflows. *)
let mark_dirty t b =
  if b >= Bytes.length t.dirty_mark then begin
    let n = grown ~len:(Bytes.length t.dirty_mark) ~need:b in
    let marks = Bytes.make n '\000' and stack = Array.make n 0 in
    Bytes.blit t.dirty_mark 0 marks 0 (Bytes.length t.dirty_mark);
    Array.blit t.dirty 0 stack 0 t.ndirty;
    t.dirty_mark <- marks;
    t.dirty <- stack
  end;
  if Bytes.unsafe_get t.dirty_mark b = '\000' then begin
    Bytes.unsafe_set t.dirty_mark b '\001';
    Array.unsafe_set t.dirty t.ndirty b;
    t.ndirty <- t.ndirty + 1
  end

(* A stable point: every block dirtied since the last one must show
   directory/tag agreement.  On a violation the set is left as it was. *)
let check_dir_agreement t =
  if t.ndirty > 0 then
    match t.dir with
    | None -> ()
    | Some dir ->
        for i = 0 to t.ndirty - 1 do
          match Directory.check_invariant dir t.dirty.(i) with
          | Ok () -> ()
          | Error msg -> fail t ~check:"directory" "directory/tag disagreement: %s" msg
        done;
        for i = 0 to t.ndirty - 1 do
          Bytes.unsafe_set t.dirty_mark t.dirty.(i) '\000'
        done;
        t.ndirty <- 0

let word_limit t = Machine.num_blocks t.machine * t.words_per_block

(* Per-phase write-ownership: two different nodes writing the same word
   between consecutive barriers is a race.  [addr] is range-checked. *)
let note_write t ~node ~addr =
  if addr >= Array.length t.writers then begin
    let ws = Array.make (grown ~len:(Array.length t.writers) ~need:addr) 0 in
    Array.blit t.writers 0 ws 0 (Array.length t.writers);
    t.writers <- ws
  end;
  let w = Array.unsafe_get t.writers addr in
  if w >= t.epoch && w <> t.epoch + node then
    fail t ~check:"race"
      "write race on word %d: nodes %d and %d both wrote it with no intervening barrier" addr
      (w - t.epoch) node
  else Array.unsafe_set t.writers addr (t.epoch + node)

(* A completed access is a stable point, and a write stamps the race table.
   The node and word are range-checked: {!feed} takes untrusted replay
   lines. *)
let check_access t ~node ~addr ~write =
  if node < 0 || node >= t.nodes then
    fail t ~check:"access" "access by node %d out of range [0,%d)" node t.nodes;
  if addr < 0 || addr >= word_limit t then
    fail t ~check:"access" "access to word %d outside the %d allocated" addr (word_limit t);
  if write && t.check_races then note_write t ~node ~addr;
  check_dir_agreement t

let on_access t ~node ~addr ~write ~faulted =
  remember_access t ~node ~addr ~write ~faulted;
  check_access t ~node ~addr ~write

let on_event t ev =
  remember t ev;
  match ev with
  | Trace.Tag_change { node; block; after; _ } ->
      if node < 0 || node >= t.nodes then
        fail t ~check:"tag" "tag change at node %d out of range [0,%d)" node t.nodes;
      if block < 0 || block >= Machine.num_blocks t.machine then
        fail t ~check:"tag" "tag change on block %d outside the %d allocated" block
          (Machine.num_blocks t.machine);
      if Option.is_some t.dir then mark_dirty t block;
      if t.mode = Commutative then track_rw t ~node ~block ~after
      else check_swmr t block
  | Trace.Msg { src; dst; bytes; kind } ->
      let n = t.nodes in
      if src < 0 || src >= n then
        fail t ~check:"msg" "message source %d out of range [0,%d)" src n;
      if dst >= n then fail t ~check:"msg" "message destination %d out of range [0,%d)" dst n;
      if bytes <= 0 then
        fail t ~check:"msg" "non-positive %s message size %d from node %d"
          (Trace.msg_kind_name kind) bytes src
  | Trace.Sched_record { phase; block; node; write = _ } ->
      let key = (phase, block) in
      let cur =
        Option.value (Hashtbl.find_opt t.recorded key) ~default:Nodeset.empty
      in
      Hashtbl.replace t.recorded key (Nodeset.add node cur)
  | Trace.Sched_flush { phase } ->
      Hashtbl.filter_map_inplace
        (fun (p, _) consumers -> if p = phase then None else Some consumers)
        t.recorded;
      check_dir_agreement t
  | Trace.Presend { phase; block; dst; write = _ } -> (
      match Hashtbl.find_opt t.recorded (phase, block) with
      | Some consumers when Nodeset.mem dst consumers -> ()
      | Some _ ->
          fail t ~check:"presend"
            "presend of block %d (phase %d) to node %d, which the schedule \
             never recorded as a consumer"
            block phase dst
      | None ->
          fail t ~check:"presend"
            "presend of block %d for phase %d, but the schedule holds no \
             record for that (phase, block) — stale after a flush?"
            block phase)
  | Trace.Access { node; addr; write; faulted = _ } -> check_access t ~node ~addr ~write
  | Trace.Barrier _ ->
      t.epoch <- t.epoch + t.nodes;
      check_dir_agreement t
  | Trace.Phase_end { phase } ->
      if t.mode = Commutative then check_merged t ~phase;
      check_dir_agreement t
  | Trace.Msg_drop { src; dst; kind = _ } ->
      (* A lost message must still have been a well-formed send. *)
      let n = t.nodes in
      if src < 0 || src >= n then fail t ~check:"drop" "dropped-message source %d out of range [0,%d)" src n;
      if dst >= n then fail t ~check:"drop" "dropped-message destination %d out of range [0,%d)" dst n
  | Trace.Sched_corrupt { phase; block; node } -> (
      (* Track the corruption so the presend-vs-schedule check tests the
         protocol against its own (corrupted) belief: a presend to the
         retargeted node is consistent; a presend from an invalidated entry
         is the stale-schedule bug this check exists to catch. *)
      match node with
      | None -> Hashtbl.remove t.recorded (phase, block)
      | Some n -> Hashtbl.replace t.recorded (phase, block) (Nodeset.singleton n))
  | Trace.Retry { node; block = _; attempt } ->
      let n = t.nodes in
      if node < 0 || node >= n then fail t ~check:"retry" "retry by node %d out of range [0,%d)" node n;
      if attempt < 1 then fail t ~check:"retry" "retry with non-positive attempt %d" attempt
  | Trace.Presend_fallback _
  | Trace.Init _ | Trace.Alloc _ | Trace.Fault _ | Trace.Phase_begin _
  | Trace.Sched_conflict _ ->
      ()

(* [create] builds a detached sanitizer: the caller feeds it events
   explicitly (the trace-replay oracle drives one from a recorded JSONL
   stream against a mirror machine).  [attach] is the live form, one
   observer of the machine taking events boxed and accesses typed.  The
   block and word tables start empty and grow on first use. *)
let create ?(mode = Invalidate) ?dir ?(check_races = true) machine =
  let nodes = Machine.num_nodes machine in
  {
    machine;
    mode;
    dir;
    check_races;
    nodes;
    words_per_block = Machine.words_per_block machine;
    dirty = [||];
    ndirty = 0;
    dirty_mark = Bytes.empty;
    recorded = Hashtbl.create 64;
    writers = [||];
    epoch = nodes;
    rw_holders = Hashtbl.create 64;
    history = Array.make history_len (Trace.Phase_begin { phase = 0 });
    acc = Array.make (2 * history_len) (-1);
    hist_next = 0;
  }

let feed t ev = on_event t ev

let attach ?mode ?dir ?check_races machine =
  let t = create ?mode ?dir ?check_races machine in
  let (_ : unit -> unit) =
    Machine.observe machine
      {
        Machine.no_observer with
        on_event = Some (on_event t);
        on_access =
          Some (fun ~node ~addr ~write ~faulted -> on_access t ~node ~addr ~write ~faulted);
      }
  in
  t

let events_seen t = t.hist_next
