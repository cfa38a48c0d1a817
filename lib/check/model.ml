(* The system under verification: a small simulated machine running one of
   the coherence protocols, driven by an explicit op alphabet.

   This is the library form of what test/test_model.ml used to build inline:
   a [sys] wraps a machine, a protocol, the online sanitizer and a model
   memory; [apply] executes one op; [check_invariants] validates the
   after-state; [state_of] canonicalizes the protocol-relevant state so the
   explorer can deduplicate; [replay] re-executes a sequence from scratch.

   Beyond the old test, the alphabet can carry *fault branches*: each
   faulty op forces a scripted injector verdict (drop / duplicate / delay)
   onto the first message drawn while the op runs, so every fault-plan point
   of lib/tempest/faults.ml becomes a deterministic, explorable transition
   instead of a sampled probability.  Schedule corruption (the fourth plan
   point) appears as explicit [Sched_drop]/[Sched_retarget] ops that apply
   the same Schedule hooks the probabilistic injector uses. *)

open Ccdsm_util
module Machine = Ccdsm_tempest.Machine
module Tag = Ccdsm_tempest.Tag
module Trace = Ccdsm_tempest.Trace
module Faults = Ccdsm_tempest.Faults
module Directory = Ccdsm_proto.Directory
module Engine = Ccdsm_proto.Engine
module Coherence = Ccdsm_proto.Coherence
module Sanitizer = Ccdsm_proto.Sanitizer
module Schedule = Ccdsm_core.Schedule
module Predictive = Ccdsm_core.Predictive

module Write_update = Ccdsm_proto.Write_update
module Migratory = Ccdsm_proto.Migratory
module Commutative = Ccdsm_proto.Commutative

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
  | name -> Error (Ccdsm_proto.Registry.unknown name)

let all_protocols = [ Stache; Predictive; Write_update; Migratory; Commutative ]

type fault = Drop | Dup | Delay

let fault_name = function Drop -> "drop" | Dup -> "dup" | Delay -> "delay"

let outcome_of_fault = function
  | Drop -> Faults.Drop
  | Dup -> Faults.Duplicate
  | Delay -> Faults.Delay

type op =
  | Read of int * int
  | Write of int * int
  | Faulty_read of int * int * fault
  | Faulty_write of int * int * fault
  | Phase_begin
  | Faulty_presend of fault
  | Phase_end
  | Flush
  | Sched_drop
  | Sched_retarget of int

let op_name = function
  | Read (n, b) -> Printf.sprintf "read(n%d,b%d)" n b
  | Write (n, b) -> Printf.sprintf "write(n%d,b%d)" n b
  | Faulty_read (n, b, f) -> Printf.sprintf "read(n%d,b%d)/%s" n b (fault_name f)
  | Faulty_write (n, b, f) -> Printf.sprintf "write(n%d,b%d)/%s" n b (fault_name f)
  | Phase_begin -> "phase_begin"
  | Faulty_presend f -> Printf.sprintf "phase_begin/%s" (fault_name f)
  | Phase_end -> "phase_end"
  | Flush -> "flush"
  | Sched_drop -> "sched_drop"
  | Sched_retarget n -> Printf.sprintf "sched_retarget(n%d)" n

(* Does [op] make sense on a machine with [nodes] nodes and [blocks] blocks?
   Used when the shrinker tries smaller machines. *)
let op_fits ~nodes ~blocks = function
  | Read (n, b) | Write (n, b) | Faulty_read (n, b, _) | Faulty_write (n, b, _) ->
      n < nodes && b < blocks
  | Sched_retarget n -> n < nodes
  | Phase_begin | Faulty_presend _ | Phase_end | Flush | Sched_drop -> true

type config = { protocol : protocol; nodes : int; blocks : int; faults : bool }

let default_config ?(protocol = Stache) ?(nodes = 3) ?(blocks = 2) ?(faults = false) () =
  if nodes < 1 then invalid_arg "Model.default_config: nodes must be positive";
  if blocks < 1 then invalid_arg "Model.default_config: blocks must be positive";
  { protocol; nodes; blocks; faults }

let config_to_string cfg =
  Printf.sprintf "%s nodes=%d blocks=%d faults=%b" (protocol_name cfg.protocol) cfg.nodes
    cfg.blocks cfg.faults

let all_faults = [ Drop; Dup; Delay ]

let alphabet cfg =
  let nodes = List.init cfg.nodes Fun.id and blocks = List.init cfg.blocks Fun.id in
  let base =
    List.concat_map
      (fun n -> List.concat_map (fun b -> [ Read (n, b); Write (n, b) ]) blocks)
      nodes
  in
  let faulty =
    if not cfg.faults then []
    else
      List.concat_map
        (fun n ->
          List.concat_map
            (fun b -> List.concat_map (fun f -> [ Faulty_read (n, b, f); Faulty_write (n, b, f) ]) all_faults)
            blocks)
        nodes
  in
  let phases =
    match cfg.protocol with
    | Stache | Migratory -> []  (* passive phase hooks: no protocol action *)
    | Write_update -> [ Phase_end; Flush ]  (* update push / subscription reset *)
    | Commutative -> [ Phase_end ]  (* the merge *)
    | Predictive ->
        [ Phase_begin; Phase_end; Flush ]
        @ (if cfg.faults then
             List.map (fun f -> Faulty_presend f) all_faults
             @ [ Sched_drop ]
             @ List.map (fun n -> Sched_retarget n) nodes
           else [])
  in
  base @ faulty @ phases

type sys = {
  cfg : config;
  machine : Machine.t;
  coh : Coherence.t;
  dir : Directory.t option;  (* when the protocol maintains the invariant *)
  pred : Predictive.t option;
  wu : Write_update.t option;
  mig : Migratory.t option;
  com : Commutative.t option;
  inj : Faults.t option;
  addr : int array;  (* word probed in each block *)
  model : float array;  (* expected value per block *)
  mutable stamp : float;  (* unique value source for writes *)
}

exception Violation of string

let make_sys ?recorder cfg =
  let machine =
    Machine.create (Machine.default_config ~num_nodes:cfg.nodes ~block_bytes:32 ())
  in
  (* The recorder (if any) subscribes first so it captures the violating
     event even when the sanitizer raises on it. *)
  (match recorder with None -> () | Some f -> Machine.subscribe machine f);
  let coh, dir, mode, pred, wu, mig, com =
    match cfg.protocol with
    | Predictive ->
        let p = Predictive.create machine in
        ( Predictive.coherence p,
          Some (Predictive.engine p).Engine.dir,
          Sanitizer.Invalidate, Some p, None, None, None )
    | Stache ->
        let eng, coh = Engine.stache machine in
        (coh, Some eng.Engine.dir, Sanitizer.Invalidate, None, None, None, None)
    | Write_update ->
        let w = Write_update.create machine in
        (Write_update.coherence_of w, None, Sanitizer.Update, None, Some w, None, None)
    | Migratory ->
        let g = Migratory.create machine in
        ( Migratory.coherence_of g,
          Some (Migratory.engine g).Engine.dir,
          Sanitizer.Invalidate, None, None, Some g, None )
    | Commutative ->
        let c = Commutative.create machine in
        (Commutative.coherence_of c, None, Sanitizer.Commutative, None, None, None, Some c)
  in
  ignore (Sanitizer.attach ~mode ?dir ~check_races:false machine);
  let inj =
    if not cfg.faults then None
    else begin
      (* A zero-rate plan: the injector never fires on its own; only the
         scripted verdicts queued by faulty ops do.  Installed explicitly
         (not via CCDSM_FAULTS) so exploration is hermetic. *)
      let f = Faults.create Faults.none in
      Machine.set_faults machine (Some f);
      Some f
    end
  in
  let addr =
    Array.init cfg.blocks (fun b -> Machine.alloc machine ~words:4 ~home:(b mod cfg.nodes))
  in
  {
    cfg; machine; coh; dir; pred; wu; mig; com; inj; addr;
    model = Array.make cfg.blocks 0.0;
    stamp = 0.0;
  }

let check_invariants sys ~after =
  let fail fmt = Format.kasprintf (fun s -> raise (Violation (after ^ ": " ^ s))) fmt in
  for b = 0 to sys.cfg.blocks - 1 do
    (* Tag-level writer discipline, per protocol: write-invalidate never has
       a writer beside any other copy; write-update feeds readers alongside
       the one writer; commutative legitimately privatizes several ReadWrite
       copies between merges, so its check is mirror/tag agreement plus the
       sanitizer's phase-boundary merge check. *)
    let rw = ref 0 and ro = ref 0 in
    for n = 0 to sys.cfg.nodes - 1 do
      match Machine.tag sys.machine ~node:n b with
      | Tag.Read_write -> incr rw
      | Tag.Read_only -> incr ro
      | Tag.Invalid -> ()
    done;
    (match sys.cfg.protocol with
    | Stache | Predictive | Migratory ->
        if !rw > 1 then fail "block %d has %d writers" b !rw;
        if !rw = 1 && !ro > 0 then fail "block %d has a writer and %d readers" b !ro
    | Write_update -> if !rw > 1 then fail "block %d has %d writers" b !rw
    | Commutative -> ());
    (match sys.com with
    | None -> ()
    | Some c -> (
        match Commutative.check_invariant c b with Ok () -> () | Error e -> fail "%s" e));
    (* Directory/tag agreement, when the protocol maintains one. *)
    match sys.dir with
    | None -> ()
    | Some dir -> (
        match Directory.check_invariant dir b with Ok () -> () | Error e -> fail "%s" e)
  done

let with_forced sys fault f =
  match sys.inj with
  | None -> f ()  (* faulty op in a fault-free config: plain semantics *)
  | Some inj ->
      Faults.force inj (outcome_of_fault fault);
      (* Clear any unconsumed verdict afterwards: an op that drew no message
         (e.g. a read that hit a valid tag) must not leak its verdict into
         the next op, or canonical states would stop being well-defined. *)
      Fun.protect ~finally:(fun () -> Faults.clear_forced inj) f

let do_read sys n b =
  let got = Machine.read sys.machine ~node:n sys.addr.(b) in
  if got <> sys.model.(b) then
    raise
      (Violation
         (Printf.sprintf "read(n%d,b%d) returned %g, expected %g" n b got sys.model.(b)))

let do_write sys n b =
  sys.stamp <- sys.stamp +. 1.0;
  sys.model.(b) <- sys.stamp;
  Machine.write sys.machine ~node:n sys.addr.(b) sys.stamp

(* Schedule corruption, mirroring Predictive.corrupt_schedule but with the
   choice points explicit (first sorted entry, explicit target) so the
   explorer branches over them deterministically.  The Sched_corrupt event
   keeps the sanitizer's presend bookkeeping in sync, exactly as the
   probabilistic injector's corruption does. *)
let corrupt sys ~retarget =
  match sys.pred with
  | None -> ()
  | Some p -> (
      match Predictive.schedule p ~phase:0 with
      | Some s when Schedule.cardinal s > 0 -> (
          let b = Schedule.nth_sorted s 0 in
          match retarget with
          | None ->
              Schedule.remove s b;
              if Machine.observed sys.machine then
                Machine.emit sys.machine (Trace.Sched_corrupt { phase = 0; block = b; node = None })
          | Some victim ->
              let mark =
                (* Writer-retarget for even victims, reader-retarget for odd:
                   both arms of the injector's choice stay reachable without
                   doubling the alphabet. *)
                if victim mod 2 = 0 then Schedule.Writer victim
                else Schedule.Readers (Nodeset.singleton victim)
              in
              Schedule.set_mark s b mark;
              if Machine.observed sys.machine then
                Machine.emit sys.machine
                  (Trace.Sched_corrupt { phase = 0; block = b; node = Some victim }))
      | _ -> ())

let apply sys op =
  match op with
  | Read (n, b) -> do_read sys n b
  | Write (n, b) -> do_write sys n b
  | Faulty_read (n, b, f) -> with_forced sys f (fun () -> do_read sys n b)
  | Faulty_write (n, b, f) -> with_forced sys f (fun () -> do_write sys n b)
  | Phase_begin -> sys.coh.Coherence.phase_begin ~phase:0
  | Faulty_presend f -> with_forced sys f (fun () -> sys.coh.Coherence.phase_begin ~phase:0)
  | Phase_end -> sys.coh.Coherence.phase_end ~phase:0
  | Flush -> sys.coh.Coherence.flush_schedule ~phase:0
  | Sched_drop -> corrupt sys ~retarget:None
  | Sched_retarget n -> corrupt sys ~retarget:(Some n)

(* Read-only probes for caller-supplied invariants (the mutation tests
   seed artificial bugs through these). *)
let tag_of sys ~node ~block = Machine.tag sys.machine ~node block
let lost_grants_of sys = match sys.pred with None -> [] | Some p -> Predictive.lost_grants p

(* Canonical state: tags, directory, phase status, schedule contents, the
   predictive protocol's lost-grant set, and each protocol's own behaviour-
   bearing side state (write-update ownership/subscriptions/dirt, migratory
   flags and last writers, commutative dirt).  Model values and stamps are
   excluded (they grow forever but do not influence protocol behaviour). *)
let state_of sys =
  let buf = Buffer.create 64 in
  for b = 0 to sys.cfg.blocks - 1 do
    for n = 0 to sys.cfg.nodes - 1 do
      Buffer.add_char buf (Tag.to_char (Machine.tag sys.machine ~node:n b))
    done;
    match sys.dir with
    | None -> ()
    | Some dir -> (
        match Directory.get dir b with
        | Directory.Exclusive o -> Buffer.add_string buf (Printf.sprintf "E%d" o)
        | Directory.Shared s ->
            Buffer.add_string buf "S";
            Nodeset.iter (fun n -> Buffer.add_string buf (string_of_int n)) s)
  done;
  (match sys.wu with
  | None -> ()
  | Some w ->
      for b = 0 to sys.cfg.blocks - 1 do
        Buffer.add_string buf (Printf.sprintf "|o%d" (Write_update.owner w b));
        Buffer.add_string buf "s";
        Nodeset.iter
          (fun n -> Buffer.add_string buf (string_of_int n))
          (Write_update.subscribers w b)
      done;
      List.iter (fun b -> Buffer.add_string buf (Printf.sprintf "d%d" b)) (Write_update.dirty_blocks w));
  (match sys.mig with
  | None -> ()
  | Some g ->
      for b = 0 to sys.cfg.blocks - 1 do
        Buffer.add_string buf
          (Printf.sprintf "|%c%d"
             (if Migratory.is_migratory g b then 'M' else 'm')
             (Migratory.last_writer g b))
      done);
  (match sys.com with
  | None -> ()
  | Some c ->
      (* the writer/reader mirrors are tag-derived (checked by the invariant
         pass), so only the pending-merge set adds information *)
      List.iter (fun b -> Buffer.add_string buf (Printf.sprintf "|d%d" b)) (Commutative.dirty_blocks c));
  (match sys.pred with
  | None -> ()
  | Some p ->
      (match Predictive.in_phase p with
      | Some _ -> Buffer.add_string buf "|in"
      | None -> Buffer.add_string buf "|out");
      (match Predictive.schedule p ~phase:0 with
      | None -> ()
      | Some s ->
          Schedule.iter_sorted s (fun b mark ->
              Buffer.add_string buf (string_of_int b);
              match mark with
              | Schedule.Readers r ->
                  Buffer.add_string buf "R";
                  Nodeset.iter (fun n -> Buffer.add_string buf (string_of_int n)) r
              | Schedule.Writer w -> Buffer.add_string buf (Printf.sprintf "W%d" w)
              | Schedule.Conflict (Schedule.Pre_readers r) ->
                  Buffer.add_string buf "Cr";
                  Nodeset.iter (fun n -> Buffer.add_string buf (string_of_int n)) r
              | Schedule.Conflict (Schedule.Pre_writer w) ->
                  Buffer.add_string buf (Printf.sprintf "Cw%d" w)));
      List.iter
        (fun (n, b) -> Buffer.add_string buf (Printf.sprintf "|L%d.%d" n b))
        (Predictive.lost_grants p));
  Buffer.contents buf

(* Replay a sequence from scratch, checking invariants after every step.
   [extra] is an additional caller invariant (the mutation tests use it to
   seed artificial bugs the shrinker must minimize).  Any exception an op
   raises — sanitizer violation or otherwise — is itself an invariant
   failure: no explored op may raise. *)
let replay ?recorder ?extra cfg seq =
  let sys = make_sys ?recorder cfg in
  let guard op f =
    try f () with
    | Violation _ as e -> raise e
    | Sanitizer.Violation v -> raise (Violation (op_name op ^ ": " ^ Sanitizer.to_string v))
    | e -> raise (Violation (op_name op ^ " raised " ^ Printexc.to_string e))
  in
  check_invariants sys ~after:"init";
  List.iter
    (fun op ->
      guard op (fun () -> apply sys op);
      check_invariants sys ~after:(op_name op);
      match extra with None -> () | Some check -> guard op (fun () -> check sys))
    seq;
  state_of sys
