module Machine = Ccdsm_tempest.Machine
module Faults = Ccdsm_tempest.Faults
module Runtime = Ccdsm_runtime.Runtime
module Coherence = Ccdsm_proto.Coherence
module Obs = Ccdsm_obs.Obs

type version = {
  label : string;
  protocol : Runtime.protocol;
  block_bytes : int;
  net : Ccdsm_tempest.Network.t;
  coalesce : bool;
  conflict_action : [ `Ignore | `First_stable ];
  run : Runtime.t -> float;
}

let version ~label ~protocol ~block_bytes ?(net = Ccdsm_tempest.Network.default)
    ?(coalesce = true) ?(conflict_action = `Ignore) run =
  { label; protocol; block_bytes; net; coalesce; conflict_action; run }

type measurement = {
  label : string;
  total_us : float;
  compute_us : float;
  remote_wait_us : float;
  presend_us : float;
  synch_us : float;
  counters : Machine.counters;
  metrics : Obs.snapshot;
  checksum : float;
  local_fraction : float;
}

let stat ?labels m name = Option.value (Obs.find m.metrics ?labels name) ~default:0.0

let protocol_name = Runtime.protocol_name

(* Map the coherence layer's [stats ()] key/value pairs into the registry
   namespace.  Known keys get first-class names; anything a future protocol
   reports lands under a generic [ccdsm_proto_*] name instead of being
   dropped. *)
let proto_metric key =
  match key with
  | "schedules" -> `Gauge ("ccdsm_sched_schedules", [])
  | "schedule_entries" -> `Gauge ("ccdsm_sched_entries", [])
  | "schedule_conflicts" -> `Gauge ("ccdsm_sched_conflicts", [])
  | "schedule_conflict_hits" -> `Counter ("ccdsm_sched_conflict_hits_total", [])
  | "schedule_rewrites" -> `Counter ("ccdsm_sched_rewrites_total", [])
  | "faults_recorded" -> `Counter ("ccdsm_sched_records_total", [])
  | "presend_msgs" -> `Counter ("ccdsm_presend_msgs_total", [])
  | "presend_blocks" -> `Counter ("ccdsm_presend_blocks_total", [])
  | "presend_bytes" -> `Counter ("ccdsm_presend_bytes_total", [])
  | "presend_redundant" -> `Counter ("ccdsm_presend_redundant_total", [])
  | "presend_undone" -> `Counter ("ccdsm_presend_undone_total", [])
  | "presend_grants_read" -> `Counter ("ccdsm_presend_grants_total", [ ("op", "read") ])
  | "presend_grants_write" -> `Counter ("ccdsm_presend_grants_total", [ ("op", "write") ])
  | "fault_drops" -> `Counter ("ccdsm_faults_injected_total", [ ("kind", "drop") ])
  | "fault_dups" -> `Counter ("ccdsm_faults_injected_total", [ ("kind", "dup") ])
  | "fault_delays" -> `Counter ("ccdsm_faults_injected_total", [ ("kind", "delay") ])
  | "fault_corruptions" -> `Counter ("ccdsm_faults_injected_total", [ ("kind", "corrupt") ])
  | k -> `Counter ("ccdsm_proto_" ^ k ^ "_total", [])

let add_stat reg (key, v) =
  match proto_metric key with
  | `Gauge (name, labels) -> Obs.Gauge.add (Obs.Registry.gauge reg ~labels name) v
  | `Counter (name, labels) ->
      Obs.Counter.add (Obs.Registry.counter reg ~labels name) (int_of_float v)

(* Fold a finished run's always-on accounting (machine counters, time
   buckets, runtime phase/task totals, coherence and fault stats) into a
   registry.  This runs whether or not a global sink was requested — the
   snapshot is how experiment tables read protocol statistics — and touches
   only post-run totals, so the simulation hot path stays metrics-free when
   unmetered. *)
let fold_run reg rt ~checksum =
  let m = Runtime.machine rt in
  let c = Machine.total_counters m in
  let ctr ?labels name v = Obs.Counter.add (Obs.Registry.counter reg ?labels name) v in
  let gau ?labels name v = Obs.Gauge.add (Obs.Registry.gauge reg ?labels name) v in
  ctr "ccdsm_machine_accesses_total" ~labels:[ ("op", "read") ] c.Machine.local_reads;
  ctr "ccdsm_machine_accesses_total" ~labels:[ ("op", "write") ] c.Machine.local_writes;
  ctr "ccdsm_machine_demand_misses_total" ~labels:[ ("op", "read") ] c.Machine.read_faults;
  ctr "ccdsm_machine_demand_misses_total" ~labels:[ ("op", "write") ] c.Machine.write_faults;
  ctr "ccdsm_net_msgs_total" c.Machine.msgs;
  ctr "ccdsm_net_bytes_total" c.Machine.bytes;
  ctr "ccdsm_machine_invalidations_total" c.Machine.invalidations;
  ctr "ccdsm_machine_downgrades_total" c.Machine.downgrades;
  ctr "ccdsm_engine_retries_total" c.Machine.retries;
  ctr "ccdsm_engine_timeouts_total" c.Machine.timeouts;
  ctr "ccdsm_presend_fallbacks_total" c.Machine.presend_fallbacks;
  ctr "ccdsm_runtime_phases_total" (Runtime.phases_run rt);
  ctr "ccdsm_runtime_tasks_total" (Runtime.tasks_dispatched rt);
  gau "ccdsm_runtime_task_us" (Runtime.task_time_us rt);
  gau "ccdsm_run_total_us" (Runtime.total_time rt);
  gau "ccdsm_run_checksum" checksum;
  List.iter
    (fun (b, mean_us) -> gau "ccdsm_time_us" ~labels:[ ("bucket", Machine.bucket_name b) ] mean_us)
    (Runtime.time_breakdown rt);
  for node = 0 to Machine.num_nodes m - 1 do
    List.iter
      (fun b ->
        gau "ccdsm_node_time_us"
          ~labels:[ ("node", string_of_int node); ("bucket", Machine.bucket_name b) ]
          (Machine.bucket_time m ~node b))
      Machine.all_buckets
  done;
  List.iter (add_stat reg) ((Runtime.coherence rt).Coherence.stats ());
  match Machine.faults m with
  | None -> ()
  | Some f -> List.iter (add_stat reg) (Faults.stats f)

let measure ?(num_nodes = 32) ?faults ?(sanitize = false) ?(check_races = true) ?app v =
  let parent = Obs.global () in
  (* Per-measurement child registry: live instruments (machine, protocol,
     runtime spans) resolve against it while the version runs, so concurrent
     versions never share instruments; afterwards it is merged into the
     parent with identifying labels.  Without a parent no registry is
     installed at all and the machine runs unmetered. *)
  let child = Obs.Registry.create () in
  let run () =
    let cfg = Machine.default_config ~num_nodes ~block_bytes:v.block_bytes ~net:v.net () in
    let rt =
      Runtime.create ~cfg ~presend_coalesce:v.coalesce ~conflict_action:v.conflict_action
        ~sanitize ~check_races ~protocol:v.protocol ()
    in
    (* An explicit plan overrides whatever CCDSM_FAULTS installed at machine
       creation; a zero plan removes the injector entirely (so a zero-rate
       grid row is the bit-exact fault-free run, not a zero-probability
       one). *)
    (match faults with
    | None -> ()
    | Some p ->
        Machine.set_faults (Runtime.machine rt)
          (if Faults.is_zero p then None else Some (Faults.create p)));
    let checksum = v.run rt in
    (rt, checksum)
  in
  let rt, checksum =
    match parent with
    | None -> run ()
    | Some _ ->
        Obs.set_global (Some child);
        Fun.protect ~finally:(fun () -> Obs.set_global parent) run
  in
  fold_run child rt ~checksum;
  (match parent with
  | None -> ()
  | Some into ->
      let labels =
        [ ("version", v.label); ("protocol", protocol_name v.protocol) ]
        @ match app with None -> [] | Some a -> [ ("app", a) ]
      in
      Obs.Registry.merge_into ~into ~labels child);
  let breakdown = Runtime.time_breakdown rt in
  let bucket b = List.assoc b breakdown in
  let counters = Machine.total_counters (Runtime.machine rt) in
  let accesses = counters.Machine.local_reads + counters.Machine.local_writes in
  let faults = counters.Machine.read_faults + counters.Machine.write_faults in
  {
    label = v.label;
    total_us = Runtime.total_time rt;
    compute_us = bucket Machine.Compute;
    remote_wait_us = bucket Machine.Remote_wait;
    presend_us = bucket Machine.Presend;
    synch_us = bucket Machine.Synch;
    counters;
    metrics = Obs.Registry.snapshot child;
    checksum;
    local_fraction =
      (if accesses = 0 then 1.0 else 1.0 -. (float_of_int faults /. float_of_int accesses));
  }

let buckets m = [| m.compute_us +. m.synch_us; m.presend_us; m.remote_wait_us |]

let segment_names = [ "Compute+Synch"; "Predictive protocol"; "Remote data wait" ]
