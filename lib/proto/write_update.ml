open Ccdsm_util
module Machine = Ccdsm_tempest.Machine
module Network = Ccdsm_tempest.Network
module Tag = Ccdsm_tempest.Tag
module Trace = Ccdsm_tempest.Trace

type t = {
  machine : Machine.t;
  cost : Cost.t;
  mutable owner : int array;  (* per block; -1 = not yet seen (home owns) *)
  mutable subs : Nodeset.t array;  (* nodes holding update-fed ReadOnly copies *)
  dirty : (Machine.block, unit) Hashtbl.t;
  mutable update_msgs : int;
  mutable update_blocks : int;
  mutable update_bytes : int;
  mutable migrations : int;
}

let ensure t b =
  if b >= Array.length t.owner then begin
    let cap = max (b + 1) (2 * Array.length t.owner) in
    let owner = Array.make cap (-1) in
    Array.blit t.owner 0 owner 0 (Array.length t.owner);
    t.owner <- owner;
    let subs = Array.make cap Nodeset.empty in
    Array.blit t.subs 0 subs 0 (Array.length t.subs);
    t.subs <- subs
  end

let owner t b =
  ensure t b;
  if t.owner.(b) < 0 then Machine.home t.machine b else t.owner.(b)

let fault_cost t = (Machine.net t.machine).Network.fault_us

(* Fetch the block from its owner: a request, the data back (the owner
   plays the home's part in [Cost]'s reply shape). *)
let fetch_from_owner t ~node o =
  List.iter
    (fun (src, dst, kind, bytes) -> Machine.count_msg t.machine ~node:src ~dst ~kind ~bytes ())
    (Cost.fetch_legs t.cost Cost.Reply ~node ~home:o ~owner:o);
  Machine.charge t.machine ~node Machine.Remote_wait (Cost.fetch_us t.cost Cost.Reply)

let on_read_fault t ~node b =
  ensure t b;
  let m = t.machine in
  let o = owner t b in
  Machine.charge m ~node Machine.Remote_wait (fault_cost t);
  if o <> node then begin
    (* Demand miss: request the block from its owner (first touch only —
       afterwards updates keep the copy fresh). *)
    fetch_from_owner t ~node o
  end;
  Machine.set_tag m ~node b Tag.Read_only;
  if o <> node then begin
    t.subs.(b) <- Nodeset.add node t.subs.(b);
    (* Re-arm write detection: now that a consumer exists, the producer's
       next write must fault (locally) so the block is marked dirty and an
       update is pushed at the end of the phase. *)
    if Tag.equal (Machine.tag m ~node:o b) Tag.Read_write then
      Machine.set_tag m ~node:o b Tag.Read_only
  end

let on_write_fault t ~node b =
  ensure t b;
  let m = t.machine in
  let o = owner t b in
  Machine.charge m ~node Machine.Remote_wait (fault_cost t);
  if o <> node then begin
    (* Ownership migration: fetch the block and the write privilege. *)
    t.migrations <- t.migrations + 1;
    fetch_from_owner t ~node o;
    (* The previous owner keeps a consumer copy. *)
    Machine.set_tag m ~node:o b Tag.Read_only;
    t.subs.(b) <- Nodeset.add o t.subs.(b);
    t.owner.(b) <- node
  end;
  Machine.set_tag m ~node b Tag.Read_write;
  t.subs.(b) <- Nodeset.remove node t.subs.(b);
  Hashtbl.replace t.dirty b ()

let push_updates t =
  let m = t.machine in
  (* Collect (producer, consumer) -> dirty block list, then coalesce each
     list into bulk messages. *)
  let pairs = Cost.queue () in
  Hashtbl.iter
    (fun b () ->
      let o = owner t b in
      Nodeset.iter (fun s -> if s <> o then Cost.push pairs ~src:o ~dst:s b) t.subs.(b))
    t.dirty;
  Cost.iter_sorted pairs (fun ~src:o ~dst:s blocks ->
      List.iter
        (fun (_, len) ->
          let bytes = Cost.run_bytes t.cost len in
          Machine.count_msg m ~node:o ~dst:s ~kind:Trace.Update ~bytes ();
          Machine.charge m ~node:o Machine.Presend (Network.msg_cost (Machine.net m) ~bytes);
          t.update_msgs <- t.update_msgs + 1;
          t.update_blocks <- t.update_blocks + len;
          t.update_bytes <- t.update_bytes + bytes)
        (Bulk.runs blocks));
  (* Re-arm dirty tracking: the owner's next write faults locally. *)
  Hashtbl.iter (fun b () -> Machine.set_tag m ~node:(owner t b) b Tag.Read_only) t.dirty;
  Hashtbl.reset t.dirty

let subscribers t b =
  ensure t b;
  t.subs.(b)

let dirty_blocks t = List.sort Int.compare (Hashtbl.fold (fun b () acc -> b :: acc) t.dirty [])

let create machine =
  let t =
    {
      machine;
      cost = Cost.make (Machine.net machine) ~block_bytes:(Machine.block_bytes machine);
      owner = Array.make 128 (-1);
      subs = Array.make 128 Nodeset.empty;
      dirty = Hashtbl.create 256;
      update_msgs = 0;
      update_blocks = 0;
      update_bytes = 0;
      migrations = 0;
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
    Coherence.name = "write-update";
    phase_begin = (fun ~phase:_ -> ());
    phase_end = (fun ~phase:_ -> push_updates t);
    flush_schedule =
      (fun ~phase:_ ->
        Hashtbl.reset t.dirty;
        Array.fill t.subs 0 (Array.length t.subs) Nodeset.empty);
    stats =
      (fun () ->
        [
          ("update_msgs", float_of_int t.update_msgs);
          ("update_blocks", float_of_int t.update_blocks);
          ("update_bytes", float_of_int t.update_bytes);
          ("ownership_migrations", float_of_int t.migrations);
        ]);
  }

let coherence machine = coherence_of (create machine)
