module Nodeset = Ccdsm_util.Nodeset
module Machine = Ccdsm_tempest.Machine
module Tag = Ccdsm_tempest.Tag
module Trace = Ccdsm_tempest.Trace

type t = {
  eng : Engine.t;
      (* reliable exchanges + the shared cost model; its directory is unused —
         the home copy is always canonical, so there is no ownership to track *)
  machine : Machine.t;
  mutable writers : Nodeset.t array;  (* privatized ReadWrite holders (mirrors the tags) *)
  mutable readers : Nodeset.t array;  (* ReadOnly consumer copies (mirrors the tags) *)
  mutable inited : bool array;
  dirty : (Machine.block, unit) Hashtbl.t;  (* privatized since the last merge *)
  mutable privatizations : int;
  mutable upgrades : int;
  mutable merges : int;
  mutable merged_blocks : int;
  mutable merge_msgs : int;
  mutable merge_bytes : int;
  mutable read_merges : int;
  mutable inval_notices : int;
}

let ensure t b =
  if b >= Array.length t.inited then begin
    let cap = max (b + 1) (2 * Array.length t.inited) in
    let grow a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    t.writers <- grow t.writers Nodeset.empty;
    t.readers <- grow t.readers Nodeset.empty;
    t.inited <- grow t.inited false
  end

let init t b =
  ensure t b;
  if not t.inited.(b) then begin
    t.inited.(b) <- true;
    (* A fresh block has exactly one copy: ReadWrite at its home (alloc). *)
    t.writers.(b) <- Nodeset.singleton (Machine.home t.machine b)
  end

(* All tag transitions go through these helpers so the writer/reader mirrors
   never drift from the machine's tags. *)
let to_rw t ~node b =
  if not (Tag.equal (Machine.tag t.machine ~node b) Tag.Read_write) then
    Machine.set_tag t.machine ~node b Tag.Read_write;
  t.writers.(b) <- Nodeset.add node t.writers.(b);
  t.readers.(b) <- Nodeset.remove node t.readers.(b)

let to_ro t ~node b =
  (match Machine.tag t.machine ~node b with
  | Tag.Read_write -> Engine.downgrade t.eng ~node b
  | Tag.Invalid -> Machine.set_tag t.machine ~node b Tag.Read_only
  | Tag.Read_only -> ());
  t.writers.(b) <- Nodeset.remove node t.writers.(b);
  t.readers.(b) <- Nodeset.add node t.readers.(b)

let to_invalid t ~node b =
  Engine.invalidate t.eng ~node b;
  t.writers.(b) <- Nodeset.remove node t.writers.(b);
  t.readers.(b) <- Nodeset.remove node t.readers.(b)

let writers_of t b =
  ensure t b;
  t.writers.(b)

let readers_of t b =
  ensure t b;
  t.readers.(b)

let dirty_blocks t = List.sort compare (Hashtbl.fold (fun b () acc -> b :: acc) t.dirty [])
let engine t = t.eng

(* Fold one privatized block back into its canonical home copy: every remote
   writer pushes its contribution home (one Update message each), then all
   writers step down to consumer copies and stale bystander readers are
   invalidated.  [payer]/[bucket] say who stalls for it — the faulting reader
   on the demand path, the pushing writer at a phase boundary. *)
let merge_one t ~bucket ~payer b =
  let m = t.machine in
  let h = Machine.home m b in
  let cost = t.eng.Engine.cost in
  let ctrl = Cost.ctrl cost in
  let ws = t.writers.(b) in
  Nodeset.iter
    (fun w ->
      if w <> h then begin
        let bytes = Cost.run_bytes cost 1 in
        Engine.exchange t.eng ~bucket ~payer ~block:b
          [ (w, h, Trace.Update, bytes) ]
          ~cost:(Engine.msg_cost t.eng ~bytes);
        t.merge_msgs <- t.merge_msgs + 1;
        t.merge_bytes <- t.merge_bytes + bytes
      end)
    ws;
  let rs = t.readers.(b) in
  Nodeset.iter
    (fun r ->
      if r <> h then begin
        let bytes = Cost.notice_bytes cost 1 in
        Engine.exchange t.eng ~bucket ~payer ~block:b
          [ (h, r, Trace.Inval, bytes); (r, h, Trace.Ack, ctrl) ]
          ~cost:(Engine.msg_cost t.eng ~bytes +. Engine.msg_cost t.eng ~bytes:ctrl);
        t.inval_notices <- t.inval_notices + 1;
        to_invalid t ~node:r b
      end)
    rs;
  Nodeset.iter (fun w -> to_ro t ~node:w b) ws;
  Hashtbl.remove t.dirty b;
  t.merged_blocks <- t.merged_blocks + 1

let on_read_fault t ~node b =
  init t b;
  let m = t.machine in
  let h = Machine.home m b in
  Machine.charge m ~node Machine.Remote_wait (Engine.fault_cost t.eng);
  if Hashtbl.mem t.dirty b && not (Nodeset.is_empty (Nodeset.remove node t.writers.(b)))
  then begin
    (* the reduction is still spread across private copies: the reader
       stalls until the block is folded home *)
    merge_one t ~bucket:Machine.Remote_wait ~payer:node b;
    t.read_merges <- t.read_merges + 1
  end;
  if node <> h then
    Engine.fetch t.eng ~bucket:Machine.Remote_wait ~payer:node ~node ~owner:node b Cost.Reply;
  (* Re-arm the producers: a new consumer appeared, so their next write must
     fault again and mark the block for the next merge. *)
  Nodeset.iter (fun w -> if w <> node then to_ro t ~node:w b) t.writers.(b);
  to_ro t ~node b

let on_write_fault t ~node b =
  init t b;
  let m = t.machine in
  let h = Machine.home m b in
  Machine.charge m ~node Machine.Remote_wait (Engine.fault_cost t.eng);
  let had_copy = Tag.permits_read (Machine.tag m ~node b) in
  if node <> h then begin
    (* A reader privatizes with permission only: no payload moves, the node
       keeps accumulating into its own copy. *)
    if had_copy then t.upgrades <- t.upgrades + 1;
    Engine.fetch t.eng ~bucket:Machine.Remote_wait ~payer:node ~node ~owner:node b
      (if had_copy then Cost.Upgrade else Cost.Reply)
  end;
  t.privatizations <- t.privatizations + 1;
  to_rw t ~node b;
  Hashtbl.replace t.dirty b ()

(* Phase-boundary merge: fold every privatized block home.  Per-writer pushes
   are bulk-coalesced over runs of adjacent blocks (a privatized reduction
   array is contiguous), and stale consumers get one batched invalidation
   notice per destination — so the boundary costs O(nodes) messages, not
   O(blocks). *)
let merge_phase t =
  let m = t.machine in
  let blocks = dirty_blocks t in
  if blocks <> [] then begin
    let cost = t.eng.Engine.cost in
    let ctrl = Cost.ctrl cost in
    let pushes : (int * int, Machine.block list ref) Hashtbl.t = Hashtbl.create 32 in
    let invals : (int * int, Machine.block list ref) Hashtbl.t = Hashtbl.create 32 in
    List.iter
      (fun b ->
        let h = Machine.home m b in
        Nodeset.iter (fun w -> if w <> h then Cost.push pushes (w, h) b) t.writers.(b);
        Nodeset.iter (fun r -> if r <> h then Cost.push invals (h, r) b) t.readers.(b))
      blocks;
    let sorted_keys tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
    List.iter
      (fun ((w, h) as key) ->
        List.iter
          (fun (first, len) ->
            let bytes = Cost.run_bytes cost len in
            Engine.exchange t.eng ~bucket:Machine.Presend ~payer:w ~block:first
              [ (w, h, Trace.Update, bytes) ]
              ~cost:(Engine.msg_cost t.eng ~bytes);
            t.merge_msgs <- t.merge_msgs + 1;
            t.merge_bytes <- t.merge_bytes + bytes)
          (Bulk.runs !(Hashtbl.find pushes key)))
      (sorted_keys pushes);
    List.iter
      (fun ((h, r) as key) ->
        let bl = !(Hashtbl.find invals key) in
        let bytes = Cost.notice_bytes cost (List.length bl) in
        Engine.exchange t.eng ~bucket:Machine.Presend ~payer:h ~block:(List.hd bl)
          [ (h, r, Trace.Inval, bytes); (r, h, Trace.Ack, ctrl) ]
          ~cost:(Engine.msg_cost t.eng ~bytes +. Engine.msg_cost t.eng ~bytes:ctrl);
        t.inval_notices <- t.inval_notices + 1)
      (sorted_keys invals);
    List.iter
      (fun b ->
        let h = Machine.home m b in
        Nodeset.iter (fun r -> if r <> h then to_invalid t ~node:r b) t.readers.(b);
        Nodeset.iter (fun w -> to_ro t ~node:w b) t.writers.(b);
        Hashtbl.remove t.dirty b)
      blocks;
    t.merges <- t.merges + 1;
    t.merged_blocks <- t.merged_blocks + List.length blocks
  end

(* Tag/mirror agreement, exposed for the model checker's invariant pass. *)
let check_invariant t b : (unit, string) result =
  ensure t b;
  if not t.inited.(b) then Ok ()
  else begin
    let m = t.machine in
    let rw = ref Nodeset.empty and ro = ref Nodeset.empty in
    for node = 0 to Machine.num_nodes m - 1 do
      match Machine.tag m ~node b with
      | Tag.Read_write -> rw := Nodeset.add node !rw
      | Tag.Read_only -> ro := Nodeset.add node !ro
      | Tag.Invalid -> ()
    done;
    let show s = String.concat "," (List.map string_of_int (Nodeset.elements s)) in
    if not (Nodeset.equal !rw t.writers.(b)) then
      Error
        (Printf.sprintf "block %d: writer mirror {%s} disagrees with ReadWrite tags {%s}" b
           (show t.writers.(b)) (show !rw))
    else if not (Nodeset.equal !ro t.readers.(b)) then
      Error
        (Printf.sprintf "block %d: reader mirror {%s} disagrees with ReadOnly tags {%s}" b
           (show t.readers.(b)) (show !ro))
    else Ok ()
  end

let create machine =
  let t =
    {
      eng = Engine.create machine;
      machine;
      writers = Array.make 128 Nodeset.empty;
      readers = Array.make 128 Nodeset.empty;
      inited = Array.make 128 false;
      dirty = Hashtbl.create 64;
      privatizations = 0;
      upgrades = 0;
      merges = 0;
      merged_blocks = 0;
      merge_msgs = 0;
      merge_bytes = 0;
      read_merges = 0;
      inval_notices = 0;
    }
  in
  Machine.install machine
    {
      Machine.on_read_fault = (fun ~node b -> on_read_fault t ~node b);
      Machine.on_write_fault = (fun ~node b -> on_write_fault t ~node b);
    };
  t

let coherence_of t =
  Coherence.traced t.machine
    {
      Coherence.name = "commutative";
      phase_begin = (fun ~phase:_ -> ());
      phase_end = (fun ~phase:_ -> merge_phase t);
      flush_schedule = (fun ~phase:_ -> ());
      stats =
        (fun () ->
          [
            ("comm_privatizations", float_of_int t.privatizations);
            ("comm_upgrades", float_of_int t.upgrades);
            ("comm_merges", float_of_int t.merges);
            ("comm_merged_blocks", float_of_int t.merged_blocks);
            ("comm_merge_msgs", float_of_int t.merge_msgs);
            ("comm_merge_bytes", float_of_int t.merge_bytes);
            ("comm_read_merges", float_of_int t.read_merges);
            ("comm_inval_notices", float_of_int t.inval_notices);
          ]);
    }

let coherence machine = coherence_of (create machine)
