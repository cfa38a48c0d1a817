module Machine = Ccdsm_tempest.Machine
module Runtime = Ccdsm_runtime.Runtime
module Aggregate = Ccdsm_runtime.Aggregate
module Distribution = Ccdsm_runtime.Distribution
module Placement = Ccdsm_cstar.Placement
module Prng = Ccdsm_util.Prng

type config = {
  n_molecules : int;
  iterations : int;
  dt : float;
  cutoff : float;
  eps2 : float;
  seed : int;
}

let default =
  { n_molecules = 512; iterations = 20; dt = 1e-4; cutoff = 0.5; eps2 = 1e-3; seed = 11 }

let small = { default with n_molecules = 64; iterations = 5 }

type stats = { checksum : float; interactions : int }

(* Field layouts.  The C** version pads each 3-vector to its own 32-byte
   block; the Splash version packs fields (compact array-of-structs). *)
type layout = { pos : int; vel : int; force : int; words : int }

let padded = { pos = 0; vel = 4; force = 8; words = 12 }
let compact = { pos = 0; vel = 3; force = 6; words = 9 }

(* The C** skeleton, from which the directive placement is derived.  The
   C** version implements the j-side force accumulation with the language's
   reduction semantics: contributions land in per-node Partial rows (local
   writes) and a combine phase gathers them — so the memory system sees a
   repetitive producer-consumer pattern instead of migratory blocks. *)
let skeleton_src =
  {|
  aggregate Pos[512] { x, y, z };
  aggregate Vel[512] { x, y, z };
  aggregate Force[512] { x, y, z };
  aggregate Partial[32][512] { x, y, z };

  parallel void predict(parallel Pos p, Vel v, Force f) {
    p[#0].x = p[#0].x + 0.0001 * v[#0].x;
    p[#0].y = p[#0].y + 0.0001 * v[#0].y;
    p[#0].z = p[#0].z + 0.0001 * v[#0].z;
    f[#0].x = 0;
    f[#0].y = 0;
    f[#0].z = 0;
  }

  parallel void zero_partials(parallel Partial q) {
    q[#0][#1].x = 0;
    q[#0][#1].y = 0;
    q[#0][#1].z = 0;
  }

  parallel void interf(parallel Force f, Pos p, Partial q) {
    let j = 0;
    for (j = #0 + 1; j < #0 + 257; j = j + 1) {
      let dx = p[j % 512].x - p[#0].x;
      f[#0].x = f[#0].x + dx;
      q[floor(#0 / 16)][j % 512].x = q[floor(#0 / 16)][j % 512].x - dx;
    }
  }

  parallel void combine(parallel Force f, Partial q) {
    let c = 0;
    for (c = 0; c < 32; c = c + 1) {
      f[#0].x = f[#0].x + q[c][#0].x;
      f[#0].y = f[#0].y + q[c][#0].y;
      f[#0].z = f[#0].z + q[c][#0].z;
    }
  }

  parallel void correct(parallel Vel v, Force f) {
    v[#0].x = v[#0].x + 0.0001 * f[#0].x;
    v[#0].y = v[#0].y + 0.0001 * f[#0].y;
    v[#0].z = v[#0].z + 0.0001 * f[#0].z;
  }

  void main() {
    let t = 0;
    for (t = 0; t < 20; t = t + 1) {
      predict();
      zero_partials();
      interf();
      combine();
      correct();
    }
  }
  |}

(* Memoized through an [Atomic] rather than [lazy]: a shared lazy forced
   concurrently from the multicore experiment drivers raises
   [CamlinternalLazy.Undefined].  The compile is pure and deterministic, so a
   racy first-wins publish is safe. *)
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

(* -- shared physics ---------------------------------------------------------- *)

(* Smooth short-range pair force: attractive-repulsive with a soft core,
   exactly zero at the cutoff.  The result multiplies the displacement. *)
let force_magnitude cfg r2 = (1.0 /. (r2 +. cfg.eps2)) -. (1.0 /. (cfg.cutoff *. cfg.cutoff))

let min_image d = d -. Float.round d

(* Storage access, identical across the DSM run and the reference:
   [read]/[write] touch molecule fields, [partial_*] touch a contributor
   node's reduction row (C** variant only).  The DSM run's accessors inline
   down to the machine ([Dsm]), so a shared float reaches the arithmetic
   unboxed; the reference goes through this record of closures ([View]). *)
type ops = {
  read : node:int -> int -> int -> float;
  write : node:int -> int -> int -> float -> unit;
  partial_read : node:int -> c:int -> int -> int -> float;  (* row c, molecule, axis *)
  partial_write : node:int -> c:int -> int -> int -> float -> unit;
  charge : node:int -> float -> unit;
}

type store =
  | Dsm of {
      rt : Runtime.t;
      machine : Machine.t;
      mols : Aggregate.t;
      partials : Machine.addr array;  (* base of each node's reduction row *)
    }
  | View of ops

let[@inline] read s ~node i w =
  match s with Dsm d -> Aggregate.read1 d.mols ~node i ~field:w | View o -> o.read ~node i w

let[@inline] write s ~node i w v =
  match s with Dsm d -> Aggregate.write1 d.mols ~node i ~field:w v | View o -> o.write ~node i w v

let[@inline] partial_read s ~node ~c i k =
  match s with
  | Dsm d -> Machine.read d.machine ~node (d.partials.(c) + (i * 4) + k)
  | View o -> o.partial_read ~node ~c i k

let[@inline] partial_write s ~node ~c i k v =
  match s with
  | Dsm d -> Machine.write d.machine ~node (d.partials.(c) + (i * 4) + k) v
  | View o -> o.partial_write ~node ~c i k v

let[@inline] charge s ~node us =
  match s with Dsm d -> Runtime.charge_compute d.rt ~node us | View o -> o.charge ~node us

(* Read-modify-writes: the read lands before the write. *)
let[@inline] add s ~node i w v = write s ~node i w (read s ~node i w +. v)

let[@inline] add_partial s ~node ~c i k v =
  partial_write s ~node ~c i k (partial_read s ~node ~c i k +. v)

let generate cfg =
  let g = Prng.create ~seed:cfg.seed in
  Array.init cfg.n_molecules (fun _ ->
      let p = Array.init 3 (fun _ -> Prng.float g 1.0) in
      let v = Array.init 3 (fun _ -> Prng.float_range g (-0.02) 0.02) in
      (p, v))

let predict_molecule cfg s layout ~node i =
  charge s ~node 10.0;
  for k = 0 to 2 do
    let p = read s ~node i (layout.pos + k) +. (cfg.dt *. read s ~node i (layout.vel + k)) in
    write s ~node i (layout.pos + k) (p -. Float.floor p);
    write s ~node i (layout.force + k) 0.0
  done

let correct_molecule cfg s layout ~node i =
  charge s ~node 10.0;
  for k = 0 to 2 do
    write s ~node i (layout.vel + k)
      (read s ~node i (layout.vel + k) +. (cfg.dt *. read s ~node i (layout.force + k)))
  done

(* One molecule's pair loop (each pair computed once, with the n/2 molecules
   following it).  The j-side contribution lands in place in the other
   molecule's force field ([splash]) or in this node's Partial row. *)
let interact_pairs cfg s layout ~node ~interactions ~splash i =
  let n = cfg.n_molecules in
  let rc2 = cfg.cutoff *. cfg.cutoff in
  let half = n / 2 in
  let px = read s ~node i layout.pos
  and py = read s ~node i (layout.pos + 1)
  and pz = read s ~node i (layout.pos + 2) in
  let fx = ref 0.0 and fy = ref 0.0 and fz = ref 0.0 in
  for k = 1 to half do
    (* The diametric pair would be visited twice; only its lower end does
       the work. *)
    if not (2 * k = n && i >= half) then begin
      let j = (i + k) mod n in
      let dx = min_image (read s ~node j layout.pos -. px)
      and dy = min_image (read s ~node j (layout.pos + 1) -. py)
      and dz = min_image (read s ~node j (layout.pos + 2) -. pz) in
      let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
      if r2 < rc2 then begin
        let f = force_magnitude cfg r2 in
        fx := !fx +. (f *. dx);
        fy := !fy +. (f *. dy);
        fz := !fz +. (f *. dz);
        let vx = -.f *. dx and vy = -.f *. dy and vz = -.f *. dz in
        if splash then begin
          (* In-place accumulation into the other molecule's force field:
             migratory remote read-modify-writes under write-invalidate. *)
          add s ~node j layout.force vx;
          add s ~node j (layout.force + 1) vy;
          add s ~node j (layout.force + 2) vz
        end
        else begin
          (* C** reduction semantics: contributions go to the contributor's
             own Partial row (local writes), gathered by the combine phase. *)
          add_partial s ~node ~c:node j 0 vx;
          add_partial s ~node ~c:node j 1 vy;
          add_partial s ~node ~c:node j 2 vz
        end;
        incr interactions;
        charge s ~node 40.0
      end
    end
  done;
  (* The i side accumulates locally and stores once (forces were zeroed in
     predict). *)
  add s ~node i layout.force !fx;
  add s ~node i (layout.force + 1) !fy;
  add s ~node i (layout.force + 2) !fz

let checksum_of read layout n =
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    for k = 0 to 2 do
      acc :=
        !acc
        +. read i (layout.pos + k)
        +. Float.abs (read i (layout.vel + k))
        +. Float.abs (read i (layout.force + k))
    done
  done;
  !acc

(* The drivers supply phase iteration; [foreach] runs per molecule grouped by
   owner, [foreach_partial] per (contributor row, molecule) element. *)
type driver = {
  store : store;
  nprocs : int;
  foreach : string -> (node:int -> int -> unit) -> unit;
  foreach_partial : string -> (node:int -> c:int -> int -> unit) -> unit;
}

let simulate cfg d layout ~splash =
  let interactions = ref 0 in
  let s = d.store in
  for _step = 1 to cfg.iterations do
    d.foreach "predict" (fun ~node i -> predict_molecule cfg s layout ~node i);
    if not splash then
      d.foreach_partial "zero_partials" (fun ~node ~c i ->
          for k = 0 to 2 do
            partial_write s ~node ~c i k 0.0
          done);
    d.foreach "interf" (fun ~node i ->
        interact_pairs cfg s layout ~node ~interactions ~splash i);
    if not splash then
      d.foreach "combine" (fun ~node i ->
          charge s ~node 10.0;
          for k = 0 to 2 do
            let acc = ref (read s ~node i (layout.force + k)) in
            for c = 0 to d.nprocs - 1 do
              acc := !acc +. partial_read s ~node ~c i k
            done;
            write s ~node i (layout.force + k) !acc
          done);
    d.foreach "correct" (fun ~node i -> correct_molecule cfg s layout ~node i)
  done;
  !interactions

(* -- DSM runs ----------------------------------------------------------------- *)

let dsm_run rt cfg ~splash =
  let layout = if splash then compact else padded in
  let machine = Runtime.machine rt in
  let nprocs = Runtime.nodes rt in
  let mols =
    Aggregate.create_1d machine ~name:"molecules" ~elem_words:layout.words ~n:cfg.n_molecules
      ~dist:Distribution.Block1d ()
  in
  (* Reduction rows: partials.(c) holds node c's contributions, homed on c;
     each molecule's slot padded to one 32-byte block. *)
  let partials =
    if splash then [||]
    else
      Array.init nprocs (fun c -> Machine.alloc machine ~words:(cfg.n_molecules * 4) ~home:c)
  in
  let init = generate cfg in
  Array.iteri
    (fun i (p, v) ->
      for k = 0 to 2 do
        Aggregate.poke1 mols i ~field:(layout.pos + k) p.(k);
        Aggregate.poke1 mols i ~field:(layout.vel + k) v.(k)
      done)
    init;
  let store = Dsm { rt; machine; mols; partials } in
  (* The C** version's directives come from the compiled skeleton; the Splash
     baseline has none. *)
  let phases = Hashtbl.create 8 in
  List.iter
    (fun name ->
      let scheduled = (not splash) && phase_scheduled name in
      Hashtbl.replace phases name (Runtime.make_phase rt ~name ~scheduled))
    [ "predict"; "zero_partials"; "interf"; "combine"; "correct" ];
  let d =
    {
      store;
      nprocs;
      foreach =
        (fun name f ->
          Runtime.parallel_for_1d rt ~phase:(Hashtbl.find phases name) mols (fun ~node ~i ->
              f ~node i));
      foreach_partial =
        (fun name f ->
          Runtime.parallel_nodes rt ~phase:(Hashtbl.find phases name) (fun ~node ->
              for i = 0 to cfg.n_molecules - 1 do
                f ~node ~c:node i
              done));
    }
  in
  let interactions = simulate cfg d layout ~splash in
  let peek i w = Aggregate.peek1 mols i ~field:w in
  { checksum = checksum_of peek layout cfg.n_molecules; interactions }

let run rt cfg = dsm_run rt cfg ~splash:false
let run_splash rt cfg = dsm_run rt cfg ~splash:true

(* -- references ---------------------------------------------------------------- *)

let reference_run cfg ~splash ~nodes =
  let layout = if splash then compact else padded in
  let store = Array.make (cfg.n_molecules * layout.words) 0.0 in
  let partial = Array.init nodes (fun _ -> Array.make (cfg.n_molecules * 3) 0.0) in
  let init = generate cfg in
  Array.iteri
    (fun i (p, v) ->
      for k = 0 to 2 do
        store.((i * layout.words) + layout.pos + k) <- p.(k);
        store.((i * layout.words) + layout.vel + k) <- v.(k)
      done)
    init;
  let ops =
    {
      read = (fun ~node:_ i w -> store.((i * layout.words) + w));
      write = (fun ~node:_ i w v -> store.((i * layout.words) + w) <- v);
      partial_read = (fun ~node:_ ~c i k -> partial.(c).((i * 3) + k));
      partial_write = (fun ~node:_ ~c i k v -> partial.(c).((i * 3) + k) <- v);
      charge = (fun ~node:_ _ -> ());
    }
  in
  (* Molecules iterate grouped by owner in node order, matching the DSM run's
     execution (and therefore its floating-point accumulation order). *)
  let d =
    {
      store = View ops;
      nprocs = nodes;
      foreach =
        (fun _ f ->
          for node = 0 to nodes - 1 do
            Distribution.iter_owned1 Distribution.Block1d ~nodes ~n:cfg.n_molecules ~node
              (fun i -> f ~node i)
          done);
      foreach_partial =
        (fun _ f ->
          for node = 0 to nodes - 1 do
            for i = 0 to cfg.n_molecules - 1 do
              f ~node ~c:node i
            done
          done);
    }
  in
  let interactions = simulate cfg d layout ~splash in
  { checksum = checksum_of (fun i w -> ops.read ~node:0 i w) layout cfg.n_molecules; interactions }

let reference ?(nodes = 32) cfg = reference_run cfg ~splash:false ~nodes
let reference_splash ?(nodes = 32) cfg = reference_run cfg ~splash:true ~nodes
