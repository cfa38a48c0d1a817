module Machine = Ccdsm_tempest.Machine
module Network = Ccdsm_tempest.Network
module Runtime = Ccdsm_runtime.Runtime
module Aggregate = Ccdsm_runtime.Aggregate
module Distribution = Ccdsm_runtime.Distribution
module Bulk = Ccdsm_proto.Bulk
module Prng = Ccdsm_util.Prng

type config = {
  n : int;
  degree : int;
  iterations : int;
  change_every : int;
  change_fraction : float;
  seed : int;
}

let default =
  { n = 2048; degree = 8; iterations = 24; change_every = 6; change_fraction = 0.1; seed = 3 }

let small = { default with n = 128; iterations = 8; change_every = 3 }

type stats = { checksum : float; pattern_changes : int }

(* The index stream is host data, identical across strategies: idx.(i).(k)
   is element i's k-th neighbour.  [evolve] re-randomizes a fraction of all
   slots (the incremental pattern change). *)
let initial_indices cfg g =
  Array.init cfg.n (fun _ -> Array.init cfg.degree (fun _ -> Prng.int g cfg.n))

let evolve cfg g idx =
  let slots = cfg.n * cfg.degree in
  let touched = int_of_float (Float.round (cfg.change_fraction *. float_of_int slots)) in
  for _ = 1 to touched do
    let i = Prng.int g cfg.n and k = Prng.int g cfg.degree in
    idx.(i).(k) <- Prng.int g cfg.n
  done

let change_due cfg t = cfg.change_every > 0 && t > 0 && t mod cfg.change_every = 0

(* One iteration of the kernel, through accessor functions so each strategy
   provides its own data path.  x is updated in place afterwards (y feeds
   the next iteration), keeping the pattern producer-consumer. *)
let kernel cfg idx ~read_x ~write_y i =
  let acc = ref 0.0 in
  for k = 0 to cfg.degree - 1 do
    acc := !acc +. read_x idx.(i).(k)
  done;
  write_y i (!acc /. float_of_int cfg.degree)

let per_element_compute = 5.0

(* -- DSM strategies ------------------------------------------------------------ *)

let run_dsm ?(flush_on_change = false) rt cfg =
  let machine = Runtime.machine rt in
  let g = Prng.create ~seed:cfg.seed in
  let idx = initial_indices cfg g in
  (* Elements padded to one 32-byte block each, double-buffered. *)
  let x = Aggregate.create_1d machine ~name:"x" ~elem_words:4 ~n:cfg.n ~dist:Distribution.Block1d () in
  let y = Aggregate.create_1d machine ~name:"y" ~elem_words:4 ~n:cfg.n ~dist:Distribution.Block1d () in
  for i = 0 to cfg.n - 1 do
    Aggregate.poke1 x i ~field:0 (Prng.float g 1.0)
  done;
  let gather = Runtime.make_phase rt ~name:"gather" ~scheduled:true in
  let copy = Runtime.make_phase rt ~name:"copy" ~scheduled:true in
  let changes = ref 0 in
  for t = 0 to cfg.iterations - 1 do
    if change_due cfg t then begin
      incr changes;
      evolve cfg g idx;
      if flush_on_change then begin
        Runtime.flush_phase rt gather;
        Runtime.flush_phase rt copy
      end
    end;
    Runtime.parallel_for_1d rt ~phase:gather x (fun ~node ~i ->
        Runtime.charge_compute rt ~node per_element_compute;
        kernel cfg idx
          ~read_x:(fun j -> Aggregate.read1 x ~node j ~field:0)
          ~write_y:(fun i v -> Aggregate.write1 y ~node i ~field:0 v)
          i);
    Runtime.parallel_for_1d rt ~phase:copy x (fun ~node ~i ->
        Aggregate.write1 x ~node i ~field:0 (Aggregate.read1 y ~node i ~field:0))
  done;
  let acc = ref 0.0 in
  for i = 0 to cfg.n - 1 do
    acc := !acc +. Aggregate.peek1 x i ~field:0
  done;
  { checksum = !acc; pattern_changes = !changes }

(* -- inspector-executor ---------------------------------------------------------- *)

let run_inspector rt cfg =
  let machine = Runtime.machine rt in
  let nprocs = Runtime.nodes rt in
  let net = Machine.net machine in
  let ctrl = net.Network.ctrl_bytes in
  let g = Prng.create ~seed:cfg.seed in
  let idx = initial_indices cfg g in
  (* Message-passing layout: every node holds its owned x values and a ghost
     table for remote ones; no coherence protocol is involved, so data lives
     in plain host arrays and only the *cost* flows through the machine. *)
  let owner i = Distribution.owner1 Distribution.Block1d ~nodes:nprocs ~n:cfg.n i in
  let x = Array.init cfg.n (fun _ -> Prng.float g 1.0) in
  let y = Array.make cfg.n 0.0 in
  let changes = ref 0 in
  (* The communication schedule: for each (owner, requester), the sorted
     element ids the requester needs.  Rebuilt by the inspector. *)
  let schedule = ref [] in
  let inspect () =
    (* Each node scans the indices of its elements (charged per slot), then
       the per-pair request lists are exchanged. *)
    let pairs : (int * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
    for i = 0 to cfg.n - 1 do
      let req = owner i in
      (* CHAOS-style address translation per reference (hashing into the
         translation table). *)
      Machine.charge machine ~node:req Machine.Presend (2.0 *. float_of_int cfg.degree);
      for k = 0 to cfg.degree - 1 do
        let j = idx.(i).(k) in
        let own = owner j in
        if own <> req then begin
          match Hashtbl.find_opt pairs (own, req) with
          | Some l -> l := j :: !l
          | None -> Hashtbl.add pairs (own, req) (ref [ j ])
        end
      done
    done;
    let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) pairs []) in
    schedule :=
      List.map
        (fun ((own, req) as key) ->
          let ids = List.sort_uniq compare !(Hashtbl.find pairs key) in
          (* Request list travels requester -> owner. *)
          let bytes = ctrl + (8 * List.length ids) in
          Machine.count_msg machine ~node:req ~dst:own ~kind:Ccdsm_tempest.Trace.Req ~bytes ();
          Machine.charge machine ~node:req Machine.Presend (Network.msg_cost net ~bytes);
          (own, req, ids))
        keys;
    Machine.barrier machine ~bucket:Machine.Presend
  in
  let execute () =
    (* Owners push the scheduled values in one bulk message per requester;
       contiguous ids share run headers like the presend. *)
    List.iter
      (fun (own, req, ids) ->
        let runs = Bulk.runs ids in
        let bytes = ctrl + (8 * List.length ids) + (8 * List.length runs) in
        Machine.count_msg machine ~node:own ~dst:req ~kind:Ccdsm_tempest.Trace.Data ~bytes ();
        Machine.charge machine ~node:own Machine.Presend (Network.msg_cost net ~bytes))
      !schedule;
    Machine.barrier machine ~bucket:Machine.Presend
  in
  inspect ();
  for t = 0 to cfg.iterations - 1 do
    if change_due cfg t then begin
      incr changes;
      evolve cfg g idx;
      (* "the communication schedule need not be rebuilt" only if the
         indirection is unchanged (Ponnusamy et al.) — it changed. *)
      inspect ()
    end;
    execute ();
    (* Local compute: owned reads and ghost reads are both node-local now. *)
    for node = 0 to nprocs - 1 do
      Distribution.iter_owned1 Distribution.Block1d ~nodes:nprocs ~n:cfg.n ~node (fun i ->
          Runtime.charge_compute rt ~node per_element_compute;
          Machine.charge machine ~node Machine.Compute
            (Machine.local_access_us *. float_of_int (cfg.degree + 1));
          kernel cfg idx ~read_x:(fun j -> x.(j)) ~write_y:(fun i v -> y.(i) <- v) i)
    done;
    Machine.barrier machine ~bucket:Machine.Synch;
    Array.blit y 0 x 0 cfg.n;
    (* The copy-back is owner-local work. *)
    for node = 0 to nprocs - 1 do
      Distribution.iter_owned1 Distribution.Block1d ~nodes:nprocs ~n:cfg.n ~node (fun _ ->
          Machine.charge machine ~node Machine.Compute (2.0 *. Machine.local_access_us))
    done;
    Machine.barrier machine ~bucket:Machine.Synch
  done;
  { checksum = Array.fold_left ( +. ) 0.0 x; pattern_changes = !changes }

(* -- reference -------------------------------------------------------------------- *)

let reference cfg =
  let g = Prng.create ~seed:cfg.seed in
  let idx = initial_indices cfg g in
  let x = Array.init cfg.n (fun _ -> Prng.float g 1.0) in
  let y = Array.make cfg.n 0.0 in
  let changes = ref 0 in
  for t = 0 to cfg.iterations - 1 do
    if change_due cfg t then begin
      incr changes;
      evolve cfg g idx
    end;
    for i = 0 to cfg.n - 1 do
      kernel cfg idx ~read_x:(fun j -> x.(j)) ~write_y:(fun i v -> y.(i) <- v) i
    done;
    Array.blit y 0 x 0 cfg.n
  done;
  { checksum = Array.fold_left ( +. ) 0.0 x; pattern_changes = !changes }
