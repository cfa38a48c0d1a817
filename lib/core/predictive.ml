open Ccdsm_util
module Machine = Ccdsm_tempest.Machine
module Network = Ccdsm_tempest.Network
module Tag = Ccdsm_tempest.Tag
module Trace = Ccdsm_tempest.Trace
module Faults = Ccdsm_tempest.Faults
module Engine = Ccdsm_proto.Engine
module Directory = Ccdsm_proto.Directory
module Bulk = Ccdsm_proto.Bulk
module Coherence = Ccdsm_proto.Coherence
module Cost = Ccdsm_proto.Cost

module Obs = Ccdsm_obs.Obs

type stats = {
  mutable faults_recorded : int;
  mutable presend_msgs : int;
  mutable presend_blocks : int;
  mutable presend_bytes : int;
  mutable presend_redundant : int;
  mutable presend_undone : int;
  mutable presend_grants_r : int;
  mutable presend_grants_w : int;
}

type t = {
  eng : Engine.t;
  machine : Machine.t;
  schedules : (int, Schedule.t) Hashtbl.t;
  presended : (int * Machine.block, unit) Hashtbl.t;
  lost : (int * Machine.block, unit) Hashtbl.t;
      (* (node, block) presend grants dropped by the fault injector this
         phase: the node believes it holds the block, the simulator knows it
         does not, and the next access falls back to a demand miss. *)
  mutable current : int option;
  coalesce : bool;
  conflict_action : [ `Ignore | `First_stable ];
  st : stats;
  run_len_hist : Obs.Histogram.t option;
      (* bulk-coalescing run lengths, observed as each presend queue is
         flushed; resolved from the machine's registry at creation *)
}

let engine t = t.eng
let stats t = t.st
let in_phase t = t.current
let schedule t ~phase = Hashtbl.find_opt t.schedules phase

(* Presend grants dropped in flight this phase, sorted for canonical output.
   This is genuine protocol state (the next access to a lost (node, block)
   pair takes the fallback path), so the model checker folds it into its
   canonicalized state. *)
let lost_grants t =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) t.lost [])

let schedule_for t phase =
  match Hashtbl.find_opt t.schedules phase with
  | Some s -> s
  | None ->
      let s = Schedule.create () in
      Hashtbl.add t.schedules phase s;
      s

let record t ~node b ~write =
  match t.current with
  | None -> ()
  | Some p ->
      if Hashtbl.mem t.presended (node, b) then t.st.presend_undone <- t.st.presend_undone + 1;
      if Hashtbl.mem t.lost (node, b) then begin
        (* The presend grant for this block was dropped in flight, so this
           demand miss is the recovery path; the record_read/record_write
           below doubles as the incremental schedule repair. *)
        Hashtbl.remove t.lost (node, b);
        Machine.note_presend_fallback t.machine ~node;
        if Machine.traced t.machine then
          Machine.emit t.machine (Trace.Presend_fallback { phase = p; block = b; node; write })
      end;
      Machine.charge t.machine ~node Machine.Remote_wait Cost.record_us;
      let s = schedule_for t p in
      let conflicts_before = Schedule.conflicts s in
      let hits_before = Schedule.conflict_hits s in
      if write then Schedule.record_write s b ~writer:node else Schedule.record_read s b ~reader:node;
      if Machine.traced t.machine then begin
        Machine.emit t.machine (Trace.Sched_record { phase = p; block = b; node; write });
        (* [conflicts] now counts every colliding insertion; the trace event
           stays transition-only (hits on an already-conflicted block leave
           [conflict_hits] as the tell), so trace censuses are unchanged. *)
        if Schedule.conflicts s > conflicts_before && Schedule.conflict_hits s = hits_before then
          Machine.emit t.machine (Trace.Sched_conflict { phase = p; block = b })
      end;
      t.st.faults_recorded <- t.st.faults_recorded + 1

(* -- presend ------------------------------------------------------------- *)

(* Send the flush messages [Cost] derives from the queues, each charged to
   the home that waits for it, then the closing barrier.  The queues are
   flushed in globally sorted key order, so the same contents produce the
   same messages and charges whether one scan or several shard scans built
   them. *)
let flush_presend t (q : Cost.queues) =
  let m = t.machine in
  (match t.run_len_hist with
  | Some hist ->
      let observe _ blocks =
        List.iter
          (fun (_, len) -> Obs.Histogram.observe hist (float_of_int len))
          (Bulk.runs !blocks)
      in
      Hashtbl.iter observe q.Cost.recall;
      Hashtbl.iter observe q.Cost.data
  | None -> ());
  List.iter
    (fun (g : Cost.msg) ->
      Machine.count_msg m ~node:g.src ~dst:g.dst ~kind:g.kind ~bytes:g.bytes ();
      Machine.charge m ~node:g.payer Machine.Presend g.us;
      t.st.presend_msgs <- t.st.presend_msgs + 1;
      t.st.presend_blocks <- t.st.presend_blocks + g.grants;
      if g.kind = Trace.Data then t.st.presend_bytes <- t.st.presend_bytes + g.bytes)
    (Cost.flush t.eng.Engine.cost ~coalesce:t.coalesce q);
  (* "the protocol enforces a global barrier synchronization to ensure
     that all protocol cache block states are stable" (section 3.4). *)
  Machine.barrier m ~bucket:Machine.Presend

(* What one scan leaves for later: the flush queues, the protocol stats,
   and — for a shard scan, which may not touch them while other shards run
   — the effects whose target is not confined to the scanned blocks' home
   shard: per-node invalidation/downgrade counters (a victim can live on
   any node) and the phase's presended set.  Each is a commutative integer
   add or a set insert, so folding several shard plans in after a parallel
   scan reproduces the sequential totals exactly. *)
type plan = {
  q : Cost.queues;
  deferred : bool;
  mutable invalidated : int list;  (* victim nodes, reverse scan order *)
  mutable downgraded : int list;
  mutable granted : (int * Machine.block) list;
  mutable redundant : int;
  mutable grants_r : int;
  mutable grants_w : int;
}

let note_downgrade t p node =
  if p.deferred then p.downgraded <- node :: p.downgraded
  else Machine.note_downgrade t.machine ~node

let note_invalidation t p node =
  if p.deferred then p.invalidated <- node :: p.invalidated
  else Machine.note_invalidation t.machine ~node

let note_granted t p kb =
  if p.deferred then p.granted <- kb :: p.granted else Hashtbl.replace t.presended kb ()

(* The presend scan over the schedule's blocks, or only over those homed
   in [shard], in ascending block order.  Tags, directory entries and the
   Presend charges at the blocks' homes are applied in place; everything
   else goes into the returned plan.

   Fault injection interposes on the per-(block, destination) grants — the
   presend's semantic unit — and the verdict is drawn BEFORE any tag or
   directory mutation.  A dropped grant therefore simply never happens:
   machine state stays trivially consistent and the receiver's next access
   degrades to a demand miss (recorded in [t.lost], counted as a presend
   fallback when it fires).  The lost message still travelled and is
   counted; only remote destinations draw a verdict, since a grant to the
   home node moves no message.  The bulk recall/invalidation legs stay
   reliable — the injector models lossy delivery of the speculative grants,
   which is where the predictive protocol's graceful degradation lives.
   Verdicts come from a sequential PRNG and trace events have an order, so
   [presend] runs shard scans in parallel only when neither is live. *)
let scan t ~phase sched ~shard =
  let m = t.machine in
  let dir = t.eng.Engine.dir in
  let cost = t.eng.Engine.cost in
  let keep =
    match shard with None -> fun _ -> true | Some s -> fun b -> Machine.shard_of_block m b = s
  in
  let p =
    {
      q = Cost.queues ();
      deferred = Option.is_some shard;
      invalidated = [];
      downgraded = [];
      granted = [];
      redundant = 0;
      grants_r = 0;
      grants_w = 0;
    }
  in
  let inj = Machine.faults m in
  let verdict_for ~dst ~h =
    match inj with Some f when dst <> h -> Faults.verdict f | _ -> Faults.Deliver
  in
  let drop_grant ~h ~dst ~kind ~bytes b =
    (match inj with Some f -> Faults.note_drop f | None -> assert false);
    Machine.count_msg m ~node:h ~dst ~kind ~bytes ();
    Machine.charge m ~node:h Machine.Presend (Network.msg_cost (Machine.net m) ~bytes);
    t.st.presend_msgs <- t.st.presend_msgs + 1;
    t.st.presend_bytes <- t.st.presend_bytes + bytes;
    if Machine.traced m then Machine.emit m (Trace.Msg_drop { src = h; dst; kind });
    Hashtbl.replace t.lost (dst, b) ()
  in
  (* Duplicate / Delay side effects for a delivered grant; Deliver is free. *)
  let grant_noise ~h ~dst ~kind ~bytes v =
    match (v, inj) with
    | Faults.Duplicate, Some f ->
        Faults.note_dup f;
        Machine.count_msg m ~node:h ~dst ~kind ~bytes ();
        t.st.presend_msgs <- t.st.presend_msgs + 1
    | Faults.Delay, Some f ->
        Faults.note_delay f;
        Machine.charge m ~node:h Machine.Presend (Faults.plan f).Faults.delay_us
    | _ -> ()
  in
  Schedule.iter_sorted sched (fun b mark ->
      if keep b then begin
        let h = Machine.home m b in
        Machine.charge m ~node:h Machine.Presend Cost.presend_block_us;
        match Schedule.presend_mark t.conflict_action mark with
        | Schedule.Conflict _ -> ()
        | Schedule.Readers rs ->
            (* Bring the data home (downgrading any writer), then forward
               readable copies to every marked reader lacking one. *)
            (match Directory.get dir b with
            | Directory.Exclusive o ->
                note_downgrade t p o;
                Machine.set_tag m ~node:o b Tag.Read_only;
                Directory.set dir b (Directory.Shared (Nodeset.singleton o));
                if o <> h then Cost.push p.q.recall (o, h) b
            | Directory.Shared _ -> ());
            let cur =
              match Directory.get dir b with
              | Directory.Shared s -> s
              | Directory.Exclusive _ -> assert false
            in
            let missing = Nodeset.diff rs cur in
            if Nodeset.is_empty missing then p.redundant <- p.redundant + 1
            else begin
              let dropped = ref Nodeset.empty in
              let bytes = Cost.grant_bytes cost ~with_data:true in
              Nodeset.iter
                (fun r ->
                  match verdict_for ~dst:r ~h with
                  | Faults.Drop ->
                      dropped := Nodeset.add r !dropped;
                      drop_grant ~h ~dst:r ~kind:Trace.Data ~bytes b
                  | v ->
                      grant_noise ~h ~dst:r ~kind:Trace.Data ~bytes v;
                      Machine.set_tag m ~node:r b Tag.Read_only;
                      note_granted t p (r, b);
                      (* Mirrors the Presend trace event one-for-one, so a
                         trace-derived count agrees with this counter to
                         the exact integer. *)
                      p.grants_r <- p.grants_r + 1;
                      if Machine.traced m then
                        Machine.emit m (Trace.Presend { phase; block = b; dst = r; write = false });
                      if r <> h then Cost.push p.q.data (h, r) b)
                missing;
              let granted = if Nodeset.is_empty !dropped then rs else Nodeset.diff rs !dropped in
              Directory.set dir b (Directory.Shared (Nodeset.union cur granted))
            end
        | Schedule.Writer w ->
            if Tag.equal (Machine.tag m ~node:w b) Tag.Read_write then
              p.redundant <- p.redundant + 1
            else begin
              let had_copy = Tag.permits_read (Machine.tag m ~node:w b) in
              let kind = if had_copy then Trace.Grant else Trace.Data in
              let bytes = Cost.grant_bytes cost ~with_data:(not had_copy) in
              match verdict_for ~dst:w ~h with
              | Faults.Drop ->
                  (* The write grant never arrives, so the whole block
                     action is skipped — no invalidations, no directory
                     change: the writer's demand miss does them later. *)
                  drop_grant ~h ~dst:w ~kind ~bytes b
              | v ->
                  grant_noise ~h ~dst:w ~kind ~bytes v;
                  (match Directory.get dir b with
                  | Directory.Exclusive o ->
                      note_invalidation t p o;
                      Machine.set_tag m ~node:o b Tag.Invalid;
                      if o <> h then Cost.push p.q.recall (o, h) b
                  | Directory.Shared readers ->
                      Nodeset.iter
                        (fun r ->
                          note_invalidation t p r;
                          Machine.set_tag m ~node:r b Tag.Invalid;
                          if r <> h then Cost.bump p.q.inval (h, r))
                        (Nodeset.remove w readers));
                  Machine.set_tag m ~node:w b Tag.Read_write;
                  note_granted t p (w, b);
                  p.grants_w <- p.grants_w + 1;
                  if Machine.traced m then
                    Machine.emit m (Trace.Presend { phase; block = b; dst = w; write = true });
                  (if w <> h then
                     if had_copy then Cost.bump p.q.grant (h, w) else Cost.push p.q.data (h, w) b);
                  Directory.set dir b (Directory.Exclusive w)
            end
      end);
  p

(* Presend dispatch.  With step parallelism asked for and the run
   fault-free, untraced and unmetered (instrument bumps are not
   thread-safe), the scan splits across domains by directory shard.
   Everything a shard scan mutates concurrently is shard-exclusive — tags
   and directory entries are block-local and a block's shard is a pure
   function of its home; Presend charges land on home nodes of the owning
   shard — and the plans are folded in sequentially in shard order, so the
   output is byte-identical to the one-domain scan at any job count (pinned
   by the jobs-equivalence qcheck property). *)
let presend t phase =
  match Hashtbl.find_opt t.schedules phase with
  | None -> ()
  | Some sched when Schedule.cardinal sched = 0 -> ()
  | Some sched ->
      let m = t.machine in
      let jobs = min (Machine.step_jobs m) (Machine.num_shards m) in
      let plans =
        if
          jobs > 1
          && (not (Machine.traced m))
          && (not (Machine.metered m))
          && Option.is_none (Machine.faults m)
        then begin
          (* Force the schedule's sorted-key cache on this domain, so the
             shard scans only read the schedule, and pre-grow the directory
             store, so they mutate disjoint, pre-existing elements of it. *)
          ignore (Schedule.sorted_keys sched);
          Directory.reserve t.eng.Engine.dir;
          Fanout.run ~jobs (Machine.num_shards m) (fun shard ->
              scan t ~phase sched ~shard:(Some shard))
        end
        else [| scan t ~phase sched ~shard:None |]
      in
      let q = plans.(0).q in
      Array.iteri
        (fun i p ->
          List.iter (fun node -> Machine.note_downgrade m ~node) (List.rev p.downgraded);
          List.iter (fun node -> Machine.note_invalidation m ~node) (List.rev p.invalidated);
          List.iter (fun kb -> Hashtbl.replace t.presended kb ()) (List.rev p.granted);
          t.st.presend_redundant <- t.st.presend_redundant + p.redundant;
          t.st.presend_grants_r <- t.st.presend_grants_r + p.grants_r;
          t.st.presend_grants_w <- t.st.presend_grants_w + p.grants_w;
          (* Queue keys contain the block's home, so shard queues are
             disjoint and merge without collision. *)
          if i > 0 then begin
            let merge dst src = Hashtbl.iter (Hashtbl.add dst) src in
            merge q.recall p.q.recall;
            merge q.inval p.q.inval;
            merge q.data p.q.data;
            merge q.grant p.q.grant
          end)
        plans;
      flush_presend t q

(* -- schedule corruption (fault injection) -------------------------------- *)

(* With probability [plan.corrupt] per phase entry, one recorded entry is
   corrupted before the presend runs: either invalidated outright (the
   presend forgets a transfer — consumers fall back to demand misses) or
   retargeted to a random node (the presend moves the block to the wrong
   place — wasted traffic, and the real consumers still demand-miss).  The
   next faults re-record the truth, which is the incremental repair. *)
let corrupt_schedule t phase =
  match Machine.faults t.machine with
  | None -> ()
  | Some f -> (
      let plan = Faults.plan f in
      if plan.Faults.corrupt > 0.0 then
        match Hashtbl.find_opt t.schedules phase with
        | Some s when Schedule.cardinal s > 0 && Faults.flip f plan.Faults.corrupt ->
            Faults.note_corruption f;
            let m = t.machine in
            let b = Schedule.nth_sorted s (Faults.draw_int f (Schedule.cardinal s)) in
            if Faults.draw_bool f then begin
              Schedule.remove s b;
              if Machine.traced m then
                Machine.emit m (Trace.Sched_corrupt { phase; block = b; node = None })
            end
            else begin
              let victim = Faults.draw_int f (Machine.num_nodes m) in
              let mark =
                if Faults.draw_bool f then Schedule.Writer victim
                else Schedule.Readers (Nodeset.singleton victim)
              in
              Schedule.set_mark s b mark;
              if Machine.traced m then
                Machine.emit m (Trace.Sched_corrupt { phase; block = b; node = Some victim })
            end
        | _ -> ())

(* -- construction -------------------------------------------------------- *)

let create ?(coalesce = true) ?(conflict_action = `Ignore) machine =
  let eng = Engine.create machine in
  let t =
    {
      eng;
      machine;
      schedules = Hashtbl.create 16;
      presended = Hashtbl.create 256;
      lost = Hashtbl.create 32;
      current = None;
      coalesce;
      conflict_action;
      st =
        {
          faults_recorded = 0;
          presend_msgs = 0;
          presend_blocks = 0;
          presend_bytes = 0;
          presend_redundant = 0;
          presend_undone = 0;
          presend_grants_r = 0;
          presend_grants_w = 0;
        };
      run_len_hist =
        (match Machine.obs machine with
        | None -> None
        | Some reg -> Some (Obs.Registry.histogram reg "ccdsm_bulk_run_length"));
    }
  in
  Machine.install machine
    {
      Machine.on_read_fault =
        (fun ~node b ->
          Engine.demand_read eng ~bucket:Machine.Remote_wait ~node b;
          record t ~node b ~write:false);
      Machine.on_write_fault =
        (fun ~node b ->
          Engine.demand_write eng ~bucket:Machine.Remote_wait ~node b;
          record t ~node b ~write:true);
    };
  t

let coherence t =
  Coherence.traced t.machine
  {
    Coherence.name = "predictive";
    phase_begin =
      (fun ~phase ->
        t.current <- Some phase;
        Hashtbl.reset t.presended;
        Hashtbl.reset t.lost;
        corrupt_schedule t phase;
        presend t phase);
    phase_end = (fun ~phase:_ -> t.current <- None);
    flush_schedule =
      (fun ~phase ->
        match Hashtbl.find_opt t.schedules phase with
        | Some s -> Schedule.clear s
        | None -> ());
    stats =
      (fun () ->
        let entries =
          Hashtbl.fold (fun _ s acc -> acc + Schedule.cardinal s) t.schedules 0
        in
        let conflicts =
          Hashtbl.fold (fun _ s acc -> acc + Schedule.conflicts s) t.schedules 0
        in
        let conflict_hits =
          Hashtbl.fold (fun _ s acc -> acc + Schedule.conflict_hits s) t.schedules 0
        in
        let rewrites =
          Hashtbl.fold (fun _ s acc -> acc + Schedule.rewrites s) t.schedules 0
        in
        [
          ("schedules", float_of_int (Hashtbl.length t.schedules));
          ("schedule_entries", float_of_int entries);
          ("schedule_conflicts", float_of_int conflicts);
          ("schedule_conflict_hits", float_of_int conflict_hits);
          ("schedule_rewrites", float_of_int rewrites);
          ("faults_recorded", float_of_int t.st.faults_recorded);
          ("presend_msgs", float_of_int t.st.presend_msgs);
          ("presend_blocks", float_of_int t.st.presend_blocks);
          ("presend_bytes", float_of_int t.st.presend_bytes);
          ("presend_redundant", float_of_int t.st.presend_redundant);
          ("presend_undone", float_of_int t.st.presend_undone);
          ("presend_grants_read", float_of_int t.st.presend_grants_r);
          ("presend_grants_write", float_of_int t.st.presend_grants_w);
        ]);
  }

(* Registry entry: predictive lives outside lib/proto, so it registers
   exactly the way a third-party protocol would — extending the registry's
   handle type with its own constructor.  The runtime extracts the handle to
   drive schedule recording and presend phases. *)
type Ccdsm_proto.Registry.handle += Handle of t

let () =
  Ccdsm_proto.Registry.register ~name:"predictive"
    ~doc:"Stache augmented with compiler-directed schedule recording and presend"
    (fun opts machine ->
      let po = opts.Ccdsm_proto.Registry.predictive in
      let p =
        create ~coalesce:po.Ccdsm_proto.Registry.coalesce
          ~conflict_action:po.Ccdsm_proto.Registry.conflict_action machine
      in
      {
        Ccdsm_proto.Registry.coherence = coherence p;
        dir = Some (engine p).Ccdsm_proto.Engine.dir;
        mode = Ccdsm_proto.Sanitizer.Invalidate;
        handle = Handle p;
      })
