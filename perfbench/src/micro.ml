(* Micro-op batches: one layer entry point called in a tight loop, timed
   from outside.  Each figure is the median of [batches] batches. *)

module Machine = Ccdsm_tempest.Machine
module Coherence = Ccdsm_proto.Coherence

let batches = 5

let per_op ~name ~ops f =
  let one () =
    Spans.with_span ~attrs:[ ("ops", string_of_int ops) ] ("micro:" ^ name) (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ops;
        (Unix.gettimeofday () -. t0) /. float_of_int ops)
  in
  Stats.median (List.init batches (fun _ -> one ()))

let small_machine () = Machine.create (Machine.default_config ~num_nodes:8 ~block_bytes:32 ())

(* Machine.read local hit on a stache machine, optionally with the online
   sanitizer subscribed (which puts every access on the traced path). *)
let read_hit_ns ~sanitized =
  let m = small_machine () in
  let engine, _ = Ccdsm_proto.Engine.stache m in
  if sanitized then ignore (Ccdsm_proto.Sanitizer.attach ~dir:engine.Ccdsm_proto.Engine.dir m);
  let a = Machine.alloc m ~words:512 ~home:0 in
  let name = if sanitized then "read_hit_sanitized" else "read_hit" in
  1e9
  *. per_op ~name ~ops:(if sanitized then 200_000 else 2_000_000) (fun n ->
         for i = 1 to n do
           ignore (Sys.opaque_identity (Machine.read m ~node:0 (a + (i land 511))))
         done)

(* A stache demand miss: alternate one writer with two readers so every
   access faults (one fault round trip per op). *)
let demand_miss_ns () =
  let m = small_machine () in
  let _ = Ccdsm_proto.Engine.stache m in
  let a = Machine.alloc m ~words:4 ~home:0 in
  1e9
  *. per_op ~name:"demand_miss" ~ops:200_000 (fun n ->
         for i = 1 to n do
           let turn = i land 3 in
           if turn = 0 then Machine.write m ~node:1 a 1.0
           else ignore (Sys.opaque_identity (Machine.read m ~node:(2 + (turn land 1)) a))
         done)

(* One predictive phase step (presend + barrier) over a 1024-block schedule. *)
let phase_step_us () =
  let m = small_machine () in
  let p = Ccdsm_core.Predictive.create m in
  let coh = Ccdsm_core.Predictive.coherence p in
  let a = Machine.alloc m ~words:4096 ~home:0 in
  coh.Coherence.phase_begin ~phase:0;
  for b = 0 to 1023 do
    ignore (Machine.read m ~node:1 (a + (b * 4)))
  done;
  coh.Coherence.phase_end ~phase:0;
  1e6
  *. per_op ~name:"phase_step" ~ops:2_000 (fun n ->
         for _ = 1 to n do
           coh.Coherence.phase_begin ~phase:0;
           coh.Coherence.phase_end ~phase:0
         done)

(* Job.parse over the workload's own spec lines. *)
let parse_us lines =
  let lines = Array.of_list lines in
  let k = Array.length lines in
  if k = 0 then 0.0
  else
    1e6
    *. per_op ~name:"parse" ~ops:(k * 100) (fun n ->
           for i = 0 to n - 1 do
             ignore (Sys.opaque_identity (Ccdsm_serve.Job.parse lines.(i mod k)))
           done)
