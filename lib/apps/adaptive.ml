module Machine = Ccdsm_tempest.Machine
module Runtime = Ccdsm_runtime.Runtime
module Aggregate = Ccdsm_runtime.Aggregate
module Distribution = Ccdsm_runtime.Distribution
module Shared_heap = Ccdsm_runtime.Shared_heap
module Placement = Ccdsm_cstar.Placement

type config = {
  n : int;
  iterations : int;
  refine_every : int;
  refine_threshold : float;
  max_refined_fraction : float;
  seed : int;
}

let default =
  {
    n = 128;
    iterations = 100;
    refine_every = 10;
    refine_threshold = 0.08;
    max_refined_fraction = 0.25;
    seed = 1;
  }

let small = { default with n = 32; iterations = 10; refine_every = 3 }

type stats = { checksum : float; refined_cells : int }

(* Field offsets in the mesh aggregate. *)
let f_value = 0
let f_refined = 1
let f_kid = 2

let skeleton_src =
  {|
  aggregate Mesh[128][128] { value, refined, kid };

  parallel void sweep_red(parallel Mesh m) {
    if ((#0 + #1) % 2 == 0) {
      m[#0][#1].value = 0.25 * (m[max(#0 - 1, 0)][#1].value + m[min(#0 + 1, 127)][#1].value
                      + m[#0][max(#1 - 1, 0)].value + m[#0][min(#1 + 1, 127)].value);
    }
  }

  parallel void sweep_black(parallel Mesh m) {
    if ((#0 + #1) % 2 == 1) {
      m[#0][#1].value = 0.25 * (m[max(#0 - 1, 0)][#1].value + m[min(#0 + 1, 127)][#1].value
                      + m[#0][max(#1 - 1, 0)].value + m[#0][min(#1 + 1, 127)].value);
    }
  }

  parallel void refine(parallel Mesh m) {
    let g = abs(m[#0][#1].value - m[max(#0 - 1, 0)][#1].value);
    if (g > 0.08) {
      m[#0][#1].refined = 1;
    }
  }

  void main() {
    let t = 0;
    for (t = 0; t < 100; t = t + 1) {
      sweep_red();
      sweep_black();
      if (t % 10 == 9) {
        refine();
      }
    }
  }
  |}

(* Directive placement derived from the skeleton, computed on first use.
   Memoized through an [Atomic] rather than [lazy]: experiment drivers run
   versions on several domains, and a shared lazy forced concurrently raises
   [CamlinternalLazy.Undefined].  The computation is pure and deterministic,
   so a racy first-wins publish is safe — a duplicated compile just produces
   the same list. *)
let scheduled_phases_memo : string list option Atomic.t = Atomic.make None

let scheduled_phases () =
  match Atomic.get scheduled_phases_memo with
  | Some v -> v
  | None ->
      let c = Ccdsm_cstar.Compile.compile_exn skeleton_src in
      let v =
        List.filter_map
          (fun d -> if d.Placement.phase <> None then Some d.Placement.func else None)
          c.Ccdsm_cstar.Compile.placement.Placement.decisions
      in
      Atomic.set scheduled_phases_memo (Some v);
      v

let phase_scheduled name = List.mem name (scheduled_phases ())

(* -- shared numeric kernel ------------------------------------------------- *)

(* The same arithmetic runs against the DSM ([Dsm]) and against flat arrays
   ([View] of this record of closures), so the reference and the simulated
   runs agree bit-for-bit.  The [Dsm] arm calls the machine directly, so its
   accessors inline and a shared float reaches the arithmetic unboxed. *)
type ops = {
  value : int -> int -> float;
  set_value : int -> int -> float -> unit;
  refined : int -> int -> bool;
  child : int -> int -> int -> float;  (* cell i j, child k in 0..3 *)
  set_child : int -> int -> int -> float -> unit;
  refine_cell : int -> int -> unit;
}

type store =
  | Dsm of {
      mesh : Aggregate.t;
      machine : Machine.t;
      heap : Shared_heap.t;
      refined_count : int ref;
    }
  | View of ops

let[@inline] value s ~node i j =
  match s with Dsm d -> Aggregate.read2 d.mesh ~node i j ~field:f_value | View o -> o.value i j

let[@inline] set_value s ~node i j v =
  match s with
  | Dsm d -> Aggregate.write2 d.mesh ~node i j ~field:f_value v
  | View o -> o.set_value i j v

let[@inline] refined s ~node i j =
  match s with
  | Dsm d -> Aggregate.read2 d.mesh ~node i j ~field:f_refined <> 0.0
  | View o -> o.refined i j

let[@inline] child s ~node i j k =
  match s with
  | Dsm d ->
      let kid = int_of_float (Aggregate.read2 d.mesh ~node i j ~field:f_kid) in
      Machine.read d.machine ~node (kid + k)
  | View o -> o.child i j k

let[@inline] set_child s ~node i j k v =
  match s with
  | Dsm d ->
      let kid = int_of_float (Aggregate.read2 d.mesh ~node i j ~field:f_kid) in
      Machine.write d.machine ~node (kid + k) v
  | View o -> o.set_child i j k v

let refine_cell s ~node i j =
  match s with
  | Dsm d ->
      let kid = Shared_heap.alloc d.heap ~node ~words:4 in
      let v = Aggregate.read2 d.mesh ~node i j ~field:f_value in
      for k = 0 to 3 do
        Machine.write d.machine ~node (kid + k) v
      done;
      Aggregate.write2 d.mesh ~node i j ~field:f_kid (float_of_int kid);
      Aggregate.write2 d.mesh ~node i j ~field:f_refined 1.0;
      incr d.refined_count
  | View o -> o.refine_cell i j

let interior n i j = i > 0 && i < n - 1 && j > 0 && j < n - 1

let sweep_cell s ~node i j =
  let v =
    0.25
    *. (value s ~node (i - 1) j
       +. value s ~node (i + 1) j
       +. value s ~node i (j - 1)
       +. value s ~node i (j + 1))
  in
  set_value s ~node i j v;
  if refined s ~node i j then
    (* Children at finer resolution interpolate against the facing neighbour;
       when that neighbour is refined too, read its facing child — the
       accesses that appear as refinement spreads. *)
    for di = 0 to 1 do
      for dj = 0 to 1 do
        let k = (2 * di) + dj in
        let vi = i + (2 * di) - 1 and hj = j + (2 * dj) - 1 in
        let vn =
          if refined s ~node vi j then child s ~node vi j ((2 * (1 - di)) + dj)
          else value s ~node vi j
        in
        let hn =
          if refined s ~node i hj then child s ~node i hj ((2 * di) + (1 - dj))
          else value s ~node i hj
        in
        set_child s ~node i j k ((0.5 *. v) +. (0.25 *. vn) +. (0.25 *. hn))
      done
    done

let gradient s ~node i j =
  let v = value s ~node i j in
  let d a = Float.abs (v -. a) in
  Float.max
    (Float.max (d (value s ~node (i - 1) j)) (d (value s ~node (i + 1) j)))
    (Float.max (d (value s ~node i (j - 1))) (d (value s ~node i (j + 1))))

let refine_decision cfg s ~node ~budget_left i j =
  budget_left && (not (refined s ~node i j)) && gradient s ~node i j > cfg.refine_threshold

(* Boundary condition: top row at potential 1, other borders at 0. *)
let init_value n i j = if i = 0 then 1.0 else if i = n - 1 || j = 0 || j = n - 1 then 0.0 else 0.0

let checksum_of ~value ~refined ~child n =
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      acc := !acc +. value i j;
      if refined i j then
        for k = 0 to 3 do
          acc := !acc +. (0.25 *. child i j k)
        done
    done
  done;
  !acc

(* -- DSM execution ---------------------------------------------------------- *)

let run ?(flush_each_iter = false) rt cfg =
  let n = cfg.n in
  let machine = Runtime.machine rt in
  (* Elements are padded to 4 words (one 32-byte block) so that a red cell
     and a black cell never share a minimum-size block: within one sweep a
     block is then either written by its owner or read by neighbours, never
     both, which keeps the communication schedules conflict-free.  At larger
     block sizes several cells share a block again and the predictive
     protocol loses precision — the section 5.1 effect. *)
  let mesh =
    Aggregate.create_2d machine ~name:"mesh" ~elem_words:4 ~rows:n ~cols:n
      ~dist:Distribution.Row_block ()
  in
  (* Initialization via pokes (uncharged): the paper's measurements target
     the iterative sweeps, not the setup. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Aggregate.poke2 mesh i j ~field:f_value (init_value n i j);
      Aggregate.poke2 mesh i j ~field:f_refined 0.0;
      Aggregate.poke2 mesh i j ~field:f_kid 0.0
    done
  done;
  let refined_count = ref 0 in
  let s = Dsm { mesh; machine; heap = Runtime.heap rt; refined_count } in
  let red = Runtime.make_phase rt ~name:"sweep_red" ~scheduled:(phase_scheduled "sweep_red") in
  let black =
    Runtime.make_phase rt ~name:"sweep_black" ~scheduled:(phase_scheduled "sweep_black")
  in
  let refine = Runtime.make_phase rt ~name:"refine" ~scheduled:(phase_scheduled "refine") in
  let sweep parity phase =
    Runtime.parallel_for_2d rt ~phase mesh (fun ~node ~i ~j ->
        if interior n i j && (i + j) land 1 = parity then begin
          Runtime.charge_compute rt ~node 100.0;
          sweep_cell s ~node i j
        end)
  in
  for t = 0 to cfg.iterations - 1 do
    sweep 0 red;
    sweep 1 black;
    if t mod cfg.refine_every = cfg.refine_every - 1 then begin
      let budget_left =
        float_of_int !refined_count < cfg.max_refined_fraction *. float_of_int (n * n)
      in
      Runtime.parallel_for_2d rt ~phase:refine mesh (fun ~node ~i ~j ->
          if interior n i j then begin
            Runtime.charge_compute rt ~node 30.0;
            if refine_decision cfg s ~node ~budget_left i j then refine_cell s ~node i j
          end)
    end;
    if flush_each_iter then List.iter (Runtime.flush_phase rt) [ red; black; refine ]
  done;
  (* Checksum over uncharged reads. *)
  let checksum =
    checksum_of
      ~value:(fun i j -> Aggregate.peek2 mesh i j ~field:f_value)
      ~refined:(fun i j -> Aggregate.peek2 mesh i j ~field:f_refined <> 0.0)
      ~child:(fun i j k ->
        let kid = int_of_float (Aggregate.peek2 mesh i j ~field:f_kid) in
        Machine.peek machine (kid + k))
      n
  in
  { checksum; refined_cells = !refined_count }

(* -- sequential reference --------------------------------------------------- *)

let reference cfg =
  let n = cfg.n in
  let value = Array.init n (fun i -> Array.init n (fun j -> init_value n i j)) in
  let refined = Array.make_matrix n n false in
  let kids = Array.make_matrix n n [||] in
  let refined_count = ref 0 in
  let ops =
    {
      value = (fun i j -> value.(i).(j));
      set_value = (fun i j v -> value.(i).(j) <- v);
      refined = (fun i j -> refined.(i).(j));
      child = (fun i j k -> kids.(i).(j).(k));
      set_child = (fun i j k v -> kids.(i).(j).(k) <- v);
      refine_cell =
        (fun i j ->
          kids.(i).(j) <- Array.make 4 value.(i).(j);
          refined.(i).(j) <- true;
          incr refined_count);
    }
  in
  let s = View ops in
  let sweep parity =
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if interior n i j && (i + j) land 1 = parity then sweep_cell s ~node:0 i j
      done
    done
  in
  for t = 0 to cfg.iterations - 1 do
    sweep 0;
    sweep 1;
    if t mod cfg.refine_every = cfg.refine_every - 1 then begin
      let budget_left =
        float_of_int !refined_count < cfg.max_refined_fraction *. float_of_int (n * n)
      in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if interior n i j && refine_decision cfg s ~node:0 ~budget_left i j then
            refine_cell s ~node:0 i j
        done
      done
    end
  done;
  {
    checksum = checksum_of ~value:ops.value ~refined:ops.refined ~child:ops.child n;
    refined_cells = !refined_count;
  }
