module Machine = Ccdsm_tempest.Machine
module Network = Ccdsm_tempest.Network
module Trace = Ccdsm_tempest.Trace
module Coherence = Ccdsm_proto.Coherence
module Engine = Ccdsm_proto.Engine
module Sanitizer = Ccdsm_proto.Sanitizer
module Predictive = Ccdsm_core.Predictive
module Obs = Ccdsm_obs.Obs

module Registry = Ccdsm_proto.Registry

type protocol = Stache | Predictive | Write_update | Migratory | Commutative

let protocol_name = function
  | Stache -> "stache"
  | Predictive -> "predictive"
  | Write_update -> "write_update"
  | Migratory -> "migratory"
  | Commutative -> "commutative"

let protocol_of_name = function
  | "stache" -> Ok Stache
  | "predictive" -> Ok Predictive
  | "write_update" -> Ok Write_update
  | "migratory" -> Ok Migratory
  | "commutative" -> Ok Commutative
  | name -> Error (Registry.unknown name)

let protocol_names () = Registry.names ()

type phase = { id : int; pname : string; scheduled : bool }

type t = {
  machine : Machine.t;
  coherence : Coherence.t;
  predictive : Predictive.t option;
  heap : Shared_heap.t;
  proto_kind : protocol;
  mutable next_phase : int;
  (* Always-on run accounting (plain field bumps, no registry work): folded
     into a metrics snapshot by the harness when one was requested. *)
  mutable phases_run : int;
  mutable tasks_dispatched : int;
  mutable task_charged_us : float;
  mutable phase_sites : phase list;  (* newest first; every make_phase *)
  obs : Obs.Registry.t option;  (* = Machine.obs machine, for phase spans *)
}

let create ?cfg ?(presend_coalesce = true) ?(conflict_action = `Ignore)
    ?(migratory_threshold = 1) ?(sanitize = false) ?(check_races = true) ~protocol () =
  let cfg = match cfg with Some c -> c | None -> Machine.default_config () in
  let machine = Machine.create cfg in
  let inst =
    let opts =
      {
        Registry.predictive = { Registry.coalesce = presend_coalesce; conflict_action };
        migratory = { Registry.detect_threshold = migratory_threshold };
      }
    in
    match Registry.create ~opts (protocol_name protocol) machine with
    | Ok inst -> inst
    | Error msg -> invalid_arg ("Runtime.create: " ^ msg)
  in
  let predictive =
    match inst.Registry.handle with Predictive.Handle p -> Some p | _ -> None
  in
  if sanitize then
    ignore
      (Sanitizer.attach ~mode:inst.Registry.mode ?dir:inst.Registry.dir ~check_races
         machine);
  {
    machine;
    coherence = inst.Registry.coherence;
    predictive;
    heap = Shared_heap.create machine;
    proto_kind = protocol;
    next_phase = 0;
    phases_run = 0;
    tasks_dispatched = 0;
    task_charged_us = 0.0;
    phase_sites = [];
    obs = Machine.obs machine;
  }

let machine t = t.machine
let heap t = t.heap
let coherence t = t.coherence
let predictive t = t.predictive
let protocol t = t.proto_kind
let nodes t = Machine.num_nodes t.machine

let make_phase t ~name ~scheduled =
  let id = t.next_phase in
  t.next_phase <- id + 1;
  let p = { id; pname = name; scheduled } in
  t.phase_sites <- p :: t.phase_sites;
  p

let phase_sites t = List.rev t.phase_sites

let phase_name p = p.pname
let phase_id p = p.id
let phase_scheduled p = p.scheduled

let flush_phase t p = t.coherence.Coherence.flush_schedule ~phase:p.id

let charge_compute t ~node us = Machine.charge t.machine ~node Machine.Compute us

let barrier t = Machine.barrier t.machine ~bucket:Machine.Synch

(* Watched quantities for phase-profiling spans: machine-wide totals whose
   before/after difference is the phase's contribution.  Only sampled while
   a metrics registry is installed. *)
let watch_items t () =
  let m = t.machine in
  let c = Machine.total_counters m in
  let bucket b =
    let total = ref 0.0 in
    for node = 0 to Machine.num_nodes m - 1 do
      total := !total +. Machine.bucket_time m ~node b
    done;
    !total
  in
  let f = float_of_int in
  [
    ("total_us", Machine.max_time m);
    ("compute_us", bucket Machine.Compute);
    ("remote_wait_us", bucket Machine.Remote_wait);
    ("presend_us", bucket Machine.Presend);
    ("synch_us", bucket Machine.Synch);
    ("demand_misses", f (c.Machine.read_faults + c.Machine.write_faults));
    ("msgs", f c.Machine.msgs);
    ("bytes", f c.Machine.bytes);
    ("retries", f c.Machine.retries);
    ("timeouts", f c.Machine.timeouts);
    ("presend_fallbacks", f c.Machine.presend_fallbacks);
    ("invalidations", f c.Machine.invalidations);
  ]
  @
  match t.predictive with
  | Some p ->
      let st = Predictive.stats p in
      [
        ("presend_grants", f (st.Predictive.presend_grants_r + st.Predictive.presend_grants_w));
        ("sched_records", f st.Predictive.faults_recorded);
      ]
  | None -> []

(* Phase boundaries for observers (the profile collector): enter fires
   before the coherence phase_begin so the presend traffic lands inside the
   phase's profile segment, exit after the closing barrier. *)
let notify_phase t phase ~enter =
  match phase with
  | Some p -> Machine.notify_phase t.machine ~enter ~id:p.id ~name:p.pname ~scheduled:p.scheduled
  | None -> Machine.notify_phase t.machine ~enter ~id:(-1) ~name:"unscheduled" ~scheduled:false

let run_phase t phase body =
  t.phases_run <- t.phases_run + 1;
  let exec () =
    let bracketed = match phase with Some p when p.scheduled -> Some p | _ -> None in
    notify_phase t phase ~enter:true;
    (match bracketed with
    | Some p -> t.coherence.Coherence.phase_begin ~phase:p.id
    | None -> ());
    body ();
    (match bracketed with
    | Some p -> t.coherence.Coherence.phase_end ~phase:p.id
    | None -> ());
    barrier t;
    notify_phase t phase ~enter:false
  in
  match t.obs with
  | None -> exec ()
  | Some reg ->
      let pid, name =
        match phase with Some p -> (p.id, p.pname) | None -> (-1, "unscheduled")
      in
      Obs.phase_span reg ~phase:pid ~name ~watch:(watch_items t) exec

(* The per-task scheduling overhead, charged as Compute: 1 µs, so a node's
   [tasks] in one phase cost exactly [float tasks] µs, charged at once. *)
let task_us = 1.0

let charge_tasks t ~node tasks =
  if tasks > 0 then begin
    let us = float_of_int tasks *. task_us in
    t.tasks_dispatched <- t.tasks_dispatched + tasks;
    t.task_charged_us <- t.task_charged_us +. us;
    Machine.charge t.machine ~node Machine.Compute us
  end

let parallel_for_1d t ?phase agg body =
  let n = (Aggregate.dims agg).(0) in
  run_phase t phase (fun () ->
      for node = 0 to nodes t - 1 do
        let tasks = ref 0 in
        Distribution.iter_owned1 (Aggregate.dist agg) ~nodes:(nodes t) ~n ~node (fun i ->
            incr tasks;
            body ~node ~i);
        charge_tasks t ~node !tasks
      done)

let parallel_for_2d t ?phase agg body =
  let dims = Aggregate.dims agg in
  if Array.length dims <> 2 then invalid_arg "Runtime.parallel_for_2d: 1-D aggregate";
  run_phase t phase (fun () ->
      for node = 0 to nodes t - 1 do
        let tasks = ref 0 in
        Distribution.iter_owned2 (Aggregate.dist agg) ~nodes:(nodes t) ~rows:dims.(0)
          ~cols:dims.(1) ~node (fun i j ->
            incr tasks;
            body ~node ~i ~j);
        charge_tasks t ~node !tasks
      done)

let parallel_nodes t ?phase body =
  run_phase t phase (fun () ->
      for node = 0 to nodes t - 1 do
        charge_compute t ~node task_us;
        t.tasks_dispatched <- t.tasks_dispatched + 1;
        t.task_charged_us <- t.task_charged_us +. task_us;
        body ~node
      done)

let phase_region t p body =
  if p.scheduled then begin
    notify_phase t (Some p) ~enter:true;
    t.coherence.Coherence.phase_begin ~phase:p.id;
    let finish () =
      t.coherence.Coherence.phase_end ~phase:p.id;
      notify_phase t (Some p) ~enter:false
    in
    match body () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end
  else body ()

let allreduce_sum t contrib =
  let p = nodes t in
  let net = Machine.net t.machine in
  let levels =
    let rec go n acc = if n <= 1 then acc else go ((n + 1) / 2) (acc + 1) in
    go p 0
  in
  let bytes = net.Network.ctrl_bytes + 8 in
  let per_node = float_of_int levels *. Network.msg_cost net ~bytes in
  let sum = ref 0.0 in
  for node = 0 to p - 1 do
    Machine.count_msg t.machine ~node ~kind:Trace.Reduce ~bytes ();
    Machine.charge t.machine ~node Machine.Remote_wait per_node;
    sum := !sum +. contrib node
  done;
  barrier t;
  !sum

let time_breakdown t =
  let p = float_of_int (nodes t) in
  List.map
    (fun b ->
      let total = ref 0.0 in
      for node = 0 to nodes t - 1 do
        total := !total +. Machine.bucket_time t.machine ~node b
      done;
      (b, !total /. p))
    Machine.all_buckets

let total_time t = Machine.max_time t.machine
let phases_run t = t.phases_run
let tasks_dispatched t = t.tasks_dispatched
let task_time_us t = t.task_charged_us
