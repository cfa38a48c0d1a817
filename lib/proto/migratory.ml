open Ccdsm_util
module Machine = Ccdsm_tempest.Machine
module Tag = Ccdsm_tempest.Tag

type t = {
  eng : Engine.t;
  machine : Machine.t;
  detect_threshold : int;
      (* qualifying read-then-upgrade observations needed to arm a block *)
  mutable migratory : bool array;  (* block exhibits read-modify-write migration *)
  mutable last_writer : int array;  (* last node granted the ReadWrite copy; -1 = none *)
  mutable pending : int array;  (* qualifying observations so far (reset on demotion) *)
  mutable detections : int;
  mutable handoffs : int;
  mutable demotions : int;
}

let ensure t b =
  if b >= Array.length t.migratory then begin
    let cap = max (b + 1) (2 * Array.length t.migratory) in
    let mig = Array.make cap false in
    Array.blit t.migratory 0 mig 0 (Array.length t.migratory);
    t.migratory <- mig;
    let lw = Array.make cap (-1) in
    Array.blit t.last_writer 0 lw 0 (Array.length t.last_writer);
    t.last_writer <- lw;
    let pend = Array.make cap 0 in
    Array.blit t.pending 0 pend 0 (Array.length t.pending);
    t.pending <- pend
  end

let engine t = t.eng

let is_migratory t b =
  ensure t b;
  t.migratory.(b)

let last_writer t b =
  ensure t b;
  t.last_writer.(b)

(* Hand the ReadWrite copy straight to the faulting reader: one transaction
   (at most 2 control + 1 data message) instead of Stache's two — a read
   downgrade now and the full upgrade/invalidate chain when the reader
   writes.  The subsequent local write hits the migrated copy without
   faulting, which is where the protocol's miss reduction comes from. *)
let handoff t ~node ~owner:o b =
  let eng = t.eng in
  let m = t.machine in
  (* Where Stache would run the 4-message chain, the home forwards the
     request and the data takes the direct path from the old owner to the
     new one (no home round trip for the payload). *)
  let f =
    match Cost.owner_fetch ~node ~home:(Machine.home m b) ~owner:o with
    | Cost.Chain -> Cost.Forward
    | f -> f
  in
  Engine.fetch eng ~bucket:Machine.Remote_wait ~payer:node ~node ~owner:o b f;
  Engine.invalidate eng ~node:o b;
  Machine.set_tag m ~node b Tag.Read_write;
  Directory.set eng.Engine.dir b (Directory.Exclusive node);
  t.last_writer.(b) <- node;
  t.handoffs <- t.handoffs + 1

let on_read_fault t ~node b =
  ensure t b;
  match Directory.get t.eng.Engine.dir b with
  | Directory.Exclusive o when t.migratory.(b) && o <> node ->
      Machine.charge t.machine ~node Machine.Remote_wait (Engine.fault_cost t.eng);
      handoff t ~node ~owner:o b
  | entry ->
      (match entry with
      | Directory.Shared _ when t.migratory.(b) ->
          (* A second reader arrived while the block sat in Shared state: the
             read-modify-write pattern is broken, fall back to Stache. *)
          t.migratory.(b) <- false;
          t.pending.(b) <- 0;
          t.demotions <- t.demotions + 1
      | _ -> ());
      Engine.demand_read t.eng ~bucket:Machine.Remote_wait ~node b

let on_write_fault t ~node b =
  ensure t b;
  (match Directory.get t.eng.Engine.dir b with
  | Directory.Shared readers
    when Nodeset.mem node readers && t.last_writer.(b) >= 0 && t.last_writer.(b) <> node ->
      (* The classic detection: an upgrade by a node that just read a block
         last written elsewhere — ownership is migrating between nodes.  The
         block arms once [detect_threshold] such observations accumulate
         (1 = immediately, the classic detector). *)
      if not t.migratory.(b) then begin
        t.pending.(b) <- t.pending.(b) + 1;
        if t.pending.(b) >= t.detect_threshold then begin
          t.migratory.(b) <- true;
          t.detections <- t.detections + 1
        end
      end
  | _ -> ());
  Engine.demand_write t.eng ~bucket:Machine.Remote_wait ~node b;
  t.last_writer.(b) <- node

let create ?(detect_threshold = 1) machine =
  if detect_threshold < 1 then invalid_arg "Migratory.create: detect_threshold must be >= 1";
  let t =
    {
      eng = Engine.create machine;
      machine;
      detect_threshold;
      migratory = Array.make 128 false;
      last_writer = Array.make 128 (-1);
      pending = Array.make 128 0;
      detections = 0;
      handoffs = 0;
      demotions = 0;
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
      (Coherence.passive ~name:"migratory") with
      Coherence.stats =
        (fun () ->
          [
            ("migratory_detections", float_of_int t.detections);
            ("migratory_handoffs", float_of_int t.handoffs);
            ("migratory_demotions", float_of_int t.demotions);
          ]);
    }

let coherence machine = coherence_of (create machine)
