(* The per-layer metrics a traced run reports, in BENCHMARK.json order.
   Every workload prints every name; a layer the workload bypasses reads 0
   (the prediction for a bypassed layer is no change). *)

let protocols = [ "stache"; "predictive"; "migratory"; "write_update"; "commutative" ]
let apps = [ "adaptive"; "barnes"; "water" ]

let all =
  [
    ("tempest.read_hit_ns", "ns");
    ("tempest.read_hit_sanitized_ns", "ns");
    ("tempest.host_ns_per_access", "ns");
    ("tempest.accesses", "count");
    ("tempest.msgs", "count");
    ("tempest.bytes", "bytes");
  ]
  @ List.map (fun p -> ("proto." ^ p ^ ".host_s", "s")) protocols
  @ List.map (fun p -> ("proto." ^ p ^ ".remote_misses", "count")) protocols
  @ [
      ("proto.demand_miss_ns", "ns");
      ("core.phase_step_us", "us");
      ("core.presend_grants", "count");
      ("core.presend_useful_ratio", "ratio");
      ("core.schedule_conflicts", "count");
    ]
  @ List.map (fun a -> ("apps." ^ a ^ ".host_s", "s")) apps
  @ [ ("harness.cell_ms.p50", "ms"); ("harness.cell_ms.max", "ms"); ("harness.busy_ratio", "ratio") ]
  @ [ ("obs.sanitizer_share", "ratio"); ("obs.metrics_share", "ratio") ]
  @ List.map (fun a -> ("rdist." ^ a ^ ".profile_s", "s")) apps
  @ [ ("rdist.prepare_ms", "ms"); ("rdist.eval_us", "us") ]
  @ [
      ("serve.cold_p50_ms", "ms");
      ("serve.cold_p80_ms", "ms");
      ("serve.warm_p50_ms", "ms");
      ("serve.warm_p95_ms", "ms");
      ("serve.queue_wait_ms.p50", "ms");
      ("serve.queue_wait_ms.p95", "ms");
      ("serve.run_ms.p50", "ms");
      ("serve.overhead_ms.p50", "ms");
      ("serve.parse_us", "us");
      ("serve.hit_ratio", "ratio");
      ("serve.rejected", "count");
      ("serve.slow_captures", "count");
      ("sim.stats_digest", "hash");
      ("trace.overhead_ratio", "ratio");
      ("trace.spans", "count");
    ]

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64
let set (t : t) name v = if List.mem_assoc name all then Hashtbl.replace t name v else invalid_arg ("Layers.set: " ^ name)
let add (t : t) name v = set t name (v +. Option.value (Hashtbl.find_opt t name) ~default:0.0)
let get (t : t) name = Option.value (Hashtbl.find_opt t name) ~default:0.0
let to_list (t : t) = List.map (fun (name, unit) -> (name, get t name, unit)) all

(* Counts and host times of the figures workload's simulated cells. *)
let of_cells t (cells : Batch.cell_obs list) =
  let open Batch in
  List.iter
    (fun c ->
      add t "tempest.msgs" (float_of_int c.o_msgs);
      add t "tempest.bytes" (float_of_int c.o_bytes);
      add t ("proto." ^ c.o_protocol ^ ".host_s") c.o_host_s;
      add t ("proto." ^ c.o_protocol ^ ".remote_misses") (float_of_int c.o_misses);
      add t ("apps." ^ c.o_app ^ ".host_s") c.o_host_s;
      add t "core.presend_grants" (float_of_int c.o_grants);
      add t "core.schedule_conflicts" (float_of_int c.o_conflicts))
    cells;
  let total f = List.fold_left (fun n c -> n + f c) 0 cells in
  let pblocks = total (fun c -> c.o_pblocks) and wasted = total (fun c -> c.o_wasted) in
  if pblocks > 0 then set t "core.presend_useful_ratio" (1.0 -. (float_of_int wasted /. float_of_int pblocks));
  let accesses = total (fun c -> c.o_accesses) in
  set t "tempest.accesses" (float_of_int accesses);
  if accesses > 0 then
    set t "tempest.host_ns_per_access" (Stats.sum (List.map (fun c -> c.o_host_s) cells) *. 1e9 /. float_of_int accesses)
