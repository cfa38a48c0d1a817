module Machine = Ccdsm_tempest.Machine
module Runtime = Ccdsm_runtime.Runtime
module Aggregate = Ccdsm_runtime.Aggregate
module Distribution = Ccdsm_runtime.Distribution
module Prng = Ccdsm_util.Prng

type config = {
  n_bodies : int;
  iterations : int;
  theta : float;
  dt : float;
  eps2 : float;
  seed : int;
}

let default = { n_bodies = 16384; iterations = 3; theta = 0.9; dt = 0.001; eps2 = 1e-6; seed = 7 }
let small = { default with n_bodies = 256; iterations = 2 }

type stats = { checksum : float; tree_nodes : int; max_depth : int }

(* Body aggregate fields. *)
let f_mass = 0
let f_px = 1 (* .. 3 *)
let f_vx = 4 (* .. 6 *)
let f_fx = 7 (* .. 9 *)
let body_words = 10

(* Tree node layout (16 shared words). *)
(* Word 0 of a node is its type: 1 = internal, 2 = leaf. *)
let t_mass = 1
let t_com = 2 (* .. 4 *)
let t_body = 5
let t_child = 6 (* .. 13 *)
let t_depth = 14
let node_words = 16

let max_tree_depth = 64

(* The algorithm runs against this abstraction both on the DSM and on flat
   arrays (the reference), so the two produce identical trees, identical
   traversals and identical floating-point results. *)
type mem = {
  read : node:int -> int -> float;
  write : node:int -> int -> float -> unit;
  body_read : node:int -> int -> int -> float;  (* body idx, field *)
  body_write : node:int -> int -> int -> float -> unit;
  alloc_node : node:int -> int;  (* base address of an uninitialized node *)
  reset_pools : unit -> unit;
  iter_pool : node:int -> (int -> unit) -> unit;  (* owned node base addrs *)
  charge : node:int -> float -> unit;
}

(* The DSM run's storage is the [Dsm] arm, whose accessors inline down to the
   machine, so a shared float reaches the force arithmetic unboxed; the
   reference runs through [View] of the closure record. *)
type store =
  | Dsm of {
      rt : Runtime.t;
      machine : Machine.t;
      bodies : Aggregate.t;
      pool_base : int array;  (* per processor: its tree-node pool *)
      pool_used : int array;
      cap : int;  (* tree nodes per pool *)
    }
  | View of mem

let[@inline] read s ~node a =
  match s with Dsm d -> Machine.read d.machine ~node a | View m -> m.read ~node a

let[@inline] write s ~node a v =
  match s with Dsm d -> Machine.write d.machine ~node a v | View m -> m.write ~node a v

let[@inline] body_read s ~node b f =
  match s with Dsm d -> Aggregate.read1 d.bodies ~node b ~field:f | View m -> m.body_read ~node b f

let[@inline] body_write s ~node b f v =
  match s with
  | Dsm d -> Aggregate.write1 d.bodies ~node b ~field:f v
  | View m -> m.body_write ~node b f v

let[@inline] charge s ~node us =
  match s with Dsm d -> Runtime.charge_compute d.rt ~node us | View m -> m.charge ~node us

let alloc_node s ~node =
  match s with
  | Dsm d ->
      if d.pool_used.(node) >= d.cap then failwith "barnes: node pool exhausted";
      let a = d.pool_base.(node) + (d.pool_used.(node) * node_words) in
      d.pool_used.(node) <- d.pool_used.(node) + 1;
      a
  | View m -> m.alloc_node ~node

let reset_pools = function
  | Dsm d -> Array.fill d.pool_used 0 (Array.length d.pool_used) 0
  | View m -> m.reset_pools ()

let iter_pool s ~node f =
  match s with
  | Dsm d ->
      for k = 0 to d.pool_used.(node) - 1 do
        f (d.pool_base.(node) + (k * node_words))
      done
  | View m -> m.iter_pool ~node f

(* -- body generation -------------------------------------------------------- *)

(* Uniform ball of radius 0.3 around the box center, small random
   velocities, equal masses. *)
let generate cfg =
  let g = Prng.create ~seed:cfg.seed in
  let bodies = Array.make (cfg.n_bodies * body_words) 0.0 in
  for b = 0 to cfg.n_bodies - 1 do
    let rec point () =
      let x = Prng.float_range g (-1.0) 1.0
      and y = Prng.float_range g (-1.0) 1.0
      and z = Prng.float_range g (-1.0) 1.0 in
      if (x *. x) +. (y *. y) +. (z *. z) <= 1.0 then (x, y, z) else point ()
    in
    let x, y, z = point () in
    let base = b * body_words in
    bodies.(base + f_mass) <- 1.0 /. float_of_int cfg.n_bodies;
    bodies.(base + f_px) <- 0.5 +. (0.3 *. x);
    bodies.(base + f_px + 1) <- 0.5 +. (0.3 *. y);
    bodies.(base + f_px + 2) <- 0.5 +. (0.3 *. z);
    for k = 0 to 2 do
      bodies.(base + f_vx + k) <- Prng.float_range g (-0.05) 0.05
    done
  done;
  bodies

(* -- tree construction ------------------------------------------------------ *)

let init_node mem ~node addr ~ty ~depth =
  write mem ~node addr (float_of_int ty);
  write mem ~node (addr + t_mass) 0.0;
  write mem ~node (addr + t_depth) (float_of_int depth);
  for c = 0 to 7 do
    write mem ~node (addr + t_child + c) 0.0
  done

let make_leaf mem ~node ~depth ~body ~mass ~x ~y ~z =
  let a = alloc_node mem ~node in
  write mem ~node a 2.0;
  write mem ~node (a + t_mass) mass;
  write mem ~node (a + t_com) x;
  write mem ~node (a + t_com + 1) y;
  write mem ~node (a + t_com + 2) z;
  write mem ~node (a + t_body) (float_of_int body);
  write mem ~node (a + t_depth) (float_of_int depth);
  for c = 0 to 7 do
    write mem ~node (a + t_child + c) 0.0
  done;
  a

(* Float-typed, so the comparisons compile to float compares rather than
   polymorphic ones. *)
let octant ~(cx : float) ~(cy : float) ~(cz : float) ~x ~y ~z =
  (if x >= cx then 1 else 0) + (if y >= cy then 2 else 0) + (if z >= cz then 4 else 0)

let oct_center ~cx ~cy ~cz ~half oct =
  let q = half /. 2.0 in
  ( (if oct land 1 <> 0 then cx +. q else cx -. q),
    (if oct land 2 <> 0 then cy +. q else cy -. q),
    if oct land 4 <> 0 then cz +. q else cz -. q )

(* Insert one body; returns the depth at which it was placed. *)
let insert mem ~node ~root body ~mass ~x ~y ~z =
  let rec go cur ~cx ~cy ~cz ~half ~depth =
    if depth > max_tree_depth then failwith "barnes: maximum tree depth exceeded";
    let oct = octant ~cx ~cy ~cz ~x ~y ~z in
    let slot = cur + t_child + oct in
    let child = int_of_float (read mem ~node slot) in
    if child = 0 then begin
      let leaf = make_leaf mem ~node ~depth:(depth + 1) ~body ~mass ~x ~y ~z in
      write mem ~node slot (float_of_int leaf);
      depth + 1
    end
    else if read mem ~node child = 2.0 then begin
      (* Occupied by a leaf: split the cell and reinsert both bodies. *)
      let inner = alloc_node mem ~node in
      init_node mem ~node inner ~ty:1 ~depth:(depth + 1);
      write mem ~node slot (float_of_int inner);
      let ncx, ncy, ncz = oct_center ~cx ~cy ~cz ~half oct in
      let nhalf = half /. 2.0 in
      let ox = read mem ~node (child + t_com)
      and oy = read mem ~node (child + t_com + 1)
      and oz = read mem ~node (child + t_com + 2) in
      let ooct = octant ~cx:ncx ~cy:ncy ~cz:ncz ~x:ox ~y:oy ~z:oz in
      write mem ~node (child + t_depth) (float_of_int (depth + 2));
      write mem ~node (inner + t_child + ooct) (float_of_int child);
      go inner ~cx:ncx ~cy:ncy ~cz:ncz ~half:nhalf ~depth:(depth + 1)
    end
    else begin
      let ncx, ncy, ncz = oct_center ~cx ~cy ~cz ~half oct in
      go child ~cx:ncx ~cy:ncy ~cz:ncz ~half:(half /. 2.0) ~depth:(depth + 1)
    end
  in
  go root ~cx:0.5 ~cy:0.5 ~cz:0.5 ~half:0.5 ~depth:0

(* A leaf that was re-depthed during splits may sit deeper than its insertion
   depth; center-of-mass only needs depths of internal nodes, and those are
   exact.  [insert] is careful to update leaf depth on split. *)

let center_of_mass_node mem ~node addr =
  let mass = ref 0.0 and mx = ref 0.0 and my = ref 0.0 and mz = ref 0.0 in
  for c = 0 to 7 do
    let child = int_of_float (read mem ~node (addr + t_child + c)) in
    if child <> 0 then begin
      let m = read mem ~node (child + t_mass) in
      mass := !mass +. m;
      mx := !mx +. (m *. read mem ~node (child + t_com));
      my := !my +. (m *. read mem ~node (child + t_com + 1));
      mz := !mz +. (m *. read mem ~node (child + t_com + 2))
    end
  done;
  write mem ~node (addr + t_mass) !mass;
  if !mass > 0.0 then begin
    write mem ~node (addr + t_com) (!mx /. !mass);
    write mem ~node (addr + t_com + 1) (!my /. !mass);
    write mem ~node (addr + t_com + 2) (!mz /. !mass)
  end

(* -- force computation ------------------------------------------------------ *)

type force_scratch = { stack_addr : int array; stack_half : float array; mutable sp : int }

let make_scratch () = { stack_addr = Array.make 4096 0; stack_half = Array.make 4096 0.0; sp = 0 }

let[@inline] push scratch a half =
  scratch.stack_addr.(scratch.sp) <- a;
  scratch.stack_half.(scratch.sp) <- half;
  scratch.sp <- scratch.sp + 1

(* One body's force, accumulated in place: an all-float record holds its
   fields unboxed. *)
type force = { mutable fx : float; mutable fy : float; mutable fz : float }

let[@inline] interact cfg mem f ~node ~px ~py ~pz ~m_self m ox oy oz =
  let dx = ox -. px and dy = oy -. py and dz = oz -. pz in
  let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. cfg.eps2 in
  let inv = 1.0 /. (r2 *. sqrt r2) in
  let s = m_self *. m *. inv in
  f.fx <- f.fx +. (s *. dx);
  f.fy <- f.fy +. (s *. dy);
  f.fz <- f.fz +. (s *. dz);
  charge mem ~node 20.0

let compute_force cfg mem scratch ~node ~root body =
  let px = body_read mem ~node body f_px
  and py = body_read mem ~node body (f_px + 1)
  and pz = body_read mem ~node body (f_px + 2)
  and m_self = body_read mem ~node body f_mass in
  let f = { fx = 0.0; fy = 0.0; fz = 0.0 } in
  let theta2 = cfg.theta *. cfg.theta in
  push scratch root 0.5;
  while scratch.sp > 0 do
    scratch.sp <- scratch.sp - 1;
    let a = scratch.stack_addr.(scratch.sp) and half = scratch.stack_half.(scratch.sp) in
    let ty = read mem ~node a in
    if ty = 2.0 then begin
      if int_of_float (read mem ~node (a + t_body)) <> body then begin
        (* A leaf's fields, read in the simulated order: last field first. *)
        let oz = read mem ~node (a + t_com + 2) in
        let oy = read mem ~node (a + t_com + 1) in
        let ox = read mem ~node (a + t_com) in
        let m = read mem ~node (a + t_mass) in
        interact cfg mem f ~node ~px ~py ~pz ~m_self m ox oy oz
      end
    end
    else begin
      let m = read mem ~node (a + t_mass) in
      if m > 0.0 then begin
        let ox = read mem ~node (a + t_com)
        and oy = read mem ~node (a + t_com + 1)
        and oz = read mem ~node (a + t_com + 2) in
        let dx = ox -. px and dy = oy -. py and dz = oz -. pz in
        let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. cfg.eps2 in
        let size = 2.0 *. half in
        if size *. size < theta2 *. r2 then
          interact cfg mem f ~node ~px ~py ~pz ~m_self m ox oy oz
        else
          for c = 0 to 7 do
            let child = int_of_float (read mem ~node (a + t_child + c)) in
            if child <> 0 then push scratch child (half /. 2.0)
          done
      end
    end
  done;
  body_write mem ~node body f_fx f.fx;
  body_write mem ~node body (f_fx + 1) f.fy;
  body_write mem ~node body (f_fx + 2) f.fz

let update_body cfg mem ~node body =
  let m = body_read mem ~node body f_mass in
  charge mem ~node 10.0;
  for k = 0 to 2 do
    let v =
      body_read mem ~node body (f_vx + k) +. (cfg.dt *. body_read mem ~node body (f_fx + k) /. m)
    in
    let p = body_read mem ~node body (f_px + k) +. (cfg.dt *. v) in
    let p = p -. Float.floor p in
    body_write mem ~node body (f_vx + k) v;
    body_write mem ~node body (f_px + k) p
  done

(* -- the full simulation (shared between DSM run and reference) ------------- *)

(* [owner] maps a body index to the processor that owns (and inserts) it;
   [foreach_bodies phase f] runs [f ~node body] for every body, grouped by
   owner, with the given phase bracketing; [foreach_nodes phase f] runs one
   task per processor. *)
type driver = {
  mem : store;
  nprocs : int;
  owner : int -> int;
  foreach_bodies : string -> (node:int -> int -> unit) -> unit;
  foreach_nodes : string -> (node:int -> unit) -> unit;
  region : string -> (unit -> unit) -> unit;
  reduce_max : int -> int;  (* global max of a per-run scalar, with comm cost *)
}

let simulate cfg d =
  let scratch = make_scratch () in
  let stats = ref { checksum = 0.0; tree_nodes = 0; max_depth = 0 } in
  let root = ref 0 in
  for _step = 1 to cfg.iterations do
    (* Phase 1: tree build (unstructured writes). *)
    reset_pools d.mem;
    let local_max = Array.make d.nprocs 0 in
    let allocated = ref 0 in
    (* Node 0 reinitializes the root before the parallel build phase. *)
    root := alloc_node d.mem ~node:0;
    init_node d.mem ~node:0 !root ~ty:1 ~depth:0;
    d.foreach_bodies "make_tree" (fun ~node body ->
        let x = body_read d.mem ~node body f_px
        and y = body_read d.mem ~node body (f_px + 1)
        and z = body_read d.mem ~node body (f_px + 2)
        and mass = body_read d.mem ~node body f_mass in
        let depth = insert d.mem ~node ~root:!root body ~mass ~x ~y ~z in
        if depth > local_max.(node) then local_max.(node) <- depth);
    let max_depth = d.reduce_max (Array.fold_left max 0 local_max) in
    (* Phase 2: center of mass, bottom-up by level — a loop of home-dominated
       parallel operations under one hoisted directive. *)
    d.region "center_of_mass" (fun () ->
        for depth = max_depth - 1 downto 0 do
          d.foreach_nodes "center_of_mass" (fun ~node ->
              iter_pool d.mem ~node (fun addr ->
                  if
                    read d.mem ~node addr = 1.0
                    && int_of_float (read d.mem ~node (addr + t_depth)) = depth
                  then begin
                    charge d.mem ~node 5.0;
                    center_of_mass_node d.mem ~node addr
                  end))
        done);
    (* Phase 3: forces (unstructured tree reads). *)
    d.foreach_bodies "forces" (fun ~node body ->
        compute_force cfg d.mem scratch ~node ~root:!root body);
    (* Phase 4: position update (home accesses). *)
    d.foreach_bodies "update" (fun ~node body -> update_body cfg d.mem ~node body);
    (* Count nodes allocated this step. *)
    allocated := 0;
    for p = 0 to d.nprocs - 1 do
      iter_pool d.mem ~node:p (fun _ -> incr allocated)
    done;
    stats := { !stats with tree_nodes = !allocated; max_depth }
  done;
  (* Checksum over final forces and positions. *)
  let acc = ref 0.0 in
  for b = 0 to cfg.n_bodies - 1 do
    let node = d.owner b in
    for k = 0 to 2 do
      acc :=
        !acc
        +. Float.abs (body_read d.mem ~node b (f_fx + k))
        +. body_read d.mem ~node b (f_px + k)
    done
  done;
  { !stats with checksum = !acc }

(* -- DSM run ----------------------------------------------------------------- *)

let pool_cap cfg nprocs = (4 * cfg.n_bodies / nprocs) + 256

let run rt cfg =
  let machine = Runtime.machine rt in
  let nprocs = Runtime.nodes rt in
  let bodies =
    Aggregate.create_1d machine ~name:"bodies" ~elem_words:body_words ~n:cfg.n_bodies
      ~dist:Distribution.Block1d ()
  in
  let init = generate cfg in
  for b = 0 to cfg.n_bodies - 1 do
    for f = 0 to body_words - 1 do
      Aggregate.poke1 bodies b ~field:f init.((b * body_words) + f)
    done
  done;
  (* Per-processor tree-node pools, allocated once and reused every step so
     the rebuilt tree lands on the same cache blocks. *)
  let cap = pool_cap cfg nprocs in
  let pool_base =
    Array.init nprocs (fun p -> Machine.alloc machine ~words:(cap * node_words) ~home:p)
  in
  let mem = Dsm { rt; machine; bodies; pool_base; pool_used = Array.make nprocs 0; cap } in
  (* Directive placement mirrors the compiled Figure-4 skeleton: every phase
     is scheduled; center_of_mass is a hoisted region. *)
  let phases = Hashtbl.create 8 in
  List.iter
    (fun name -> Hashtbl.replace phases name (Runtime.make_phase rt ~name ~scheduled:true))
    [ "make_tree"; "center_of_mass"; "forces"; "update" ];
  let phase name = Hashtbl.find phases name in
  let in_region = ref false in
  let d =
    {
      mem;
      nprocs;
      owner = (fun b -> Aggregate.owner1 bodies b);
      foreach_bodies =
        (fun name f ->
          let phase = if !in_region then None else Some (phase name) in
          Runtime.parallel_for_1d rt ?phase bodies (fun ~node ~i -> f ~node i));
      foreach_nodes =
        (fun name f ->
          let phase = if !in_region then None else Some (phase name) in
          Runtime.parallel_nodes rt ?phase f);
      region =
        (fun name f ->
          Runtime.phase_region rt (phase name) (fun () ->
              in_region := true;
              Fun.protect ~finally:(fun () -> in_region := false) f));
      reduce_max =
        (fun local ->
          (* Communication cost of a global max combine. *)
          ignore (Runtime.allreduce_sum rt (fun _ -> 0.0));
          local);
    }
  in
  simulate cfg d

(* -- reference ---------------------------------------------------------------- *)

let reference cfg =
  (* Same algorithm on flat arrays: a single tape plays the shared segment.
     Address 0 is reserved as the null pointer. *)
  let bodies = generate cfg in
  let tape = ref (Array.make (1 lsl 16) 0.0) in
  let used = ref node_words in
  let ensure n =
    if n > Array.length !tape then begin
      let bigger = Array.make (max n (2 * Array.length !tape)) 0.0 in
      Array.blit !tape 0 bigger 0 (Array.length !tape);
      tape := bigger
    end
  in
  let bases = ref [] in
  let mem =
    {
      read = (fun ~node:_ a -> !tape.(a));
      write =
        (fun ~node:_ a v ->
          ensure (a + 1);
          !tape.(a) <- v);
      body_read = (fun ~node:_ b f -> bodies.((b * body_words) + f));
      body_write = (fun ~node:_ b f v -> bodies.((b * body_words) + f) <- v);
      alloc_node =
        (fun ~node:_ ->
          let a = !used in
          used := a + node_words;
          ensure !used;
          bases := a :: !bases;
          a);
      reset_pools =
        (fun () ->
          used := node_words;
          bases := []);
      iter_pool = (fun ~node f -> if node = 0 then List.iter f (List.rev !bases));
      charge = (fun ~node:_ _ -> ());
    }
  in
  (* Bodies must be inserted in the same order as the DSM run: block
     distribution over [nprocs] = ascending body order.  One "processor"
     suffices for the rest. *)
  let d =
    {
      mem = View mem;
      nprocs = 1;
      owner = (fun _ -> 0);
      foreach_bodies =
        (fun _ f ->
          for b = 0 to cfg.n_bodies - 1 do
            f ~node:0 b
          done);
      foreach_nodes = (fun _ f -> f ~node:0);
      region = (fun _ f -> f ());
      reduce_max = (fun x -> x);
    }
  in
  simulate cfg d
