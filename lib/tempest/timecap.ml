module Timeline = Ccdsm_obs.Timeline

type t = {
  m : Machine.t;
  tl : Timeline.t;
  net : Network.t;
  nnodes : int;
  mutable detach : unit -> unit;
  (* one coherence interaction is in flight at a time (the simulator is
     sequential), but presend planning hops across home nodes, so chains are
     tracked per node: the last span of the node's open chain, the cursor
     where its next dependent span may start, and the chain's bucket. *)
  chain_id : int array;
  chain_end : float array;
  chain_bucket : int array;  (* -1 = no open chain *)
  mutable pending_fault : (int * int * bool) option;  (* node, block, write *)
  mutable legs : (int * int * Trace.msg_kind * int) list;  (* newest first *)
  (* barrier bookkeeping: the Barrier event precedes the per-node skew
     charges, in node order, so we count them down and seal at zero. *)
  mutable in_barrier : bool;
  mutable barrier_left : int;
  mutable barrier_label : string;
  mutable barrier_release : float;
  (* phase labeling for segment names *)
  mutable cur_phase : int;
  mutable phase_open : bool;
  mutable since_seal : bool;
  granted : (int * int, int) Hashtbl.t;  (* (dst node, block) -> grant span id *)
}

let bucket_names = Array.of_list (List.map Machine.bucket_name Machine.all_buckets)
let kind_names = Array.of_list (List.map Trace.msg_kind_name Trace.all_msg_kinds)

let phase_label t = if t.cur_phase >= 0 then Printf.sprintf "p%d" t.cur_phase else "outside"

(* Every dependent span starts at (or after) its parent's end — that is the
   timeline's happens-before contract.  Clock reads rebuild a node's time as
   a fresh 4-term bucket sum while chain cursors accumulate leg by leg, so
   the two float paths can disagree by an ulp; clamp at creation rather than
   let an edge tilt backwards. *)
let span_at t ~track ~cat ~name ~t0 ~dur ?(parent = -1) ?(flow_dst = -1) () =
  let t0 = if parent >= 0 then Float.max t0 (Timeline.span_end t.tl parent) else t0 in
  Timeline.span t.tl ~track ~cat ~name ~t0 ~dur ~parent ~flow_dst ()

let close_chain t node = t.chain_bucket.(node) <- -1

let clear_chains t =
  Array.fill t.chain_bucket 0 t.nnodes (-1);
  t.legs <- []

let seal t ~label ~t1 =
  Timeline.seal t.tl ~label ~t1;
  clear_chains t;
  t.since_seal <- false;
  if not t.phase_open then t.cur_phase <- -1

(* -- charge hooks --------------------------------------------------------- *)

(* A completed access: its Compute charge, then, for the first hit on a
   presend-granted block, an "avoided" marker under the grant. *)
let on_access t ~node ~addr ~faulted =
  Timeline.add_charge t.tl ~node ~bucket:0 ~us:Machine.local_access_us;
  t.since_seal <- true;
  (* the node is computing again: its demand chain is complete *)
  close_chain t node;
  if (not faulted) && Hashtbl.length t.granted > 0 then begin
    let block = addr / Machine.words_per_block t.m in
    match Hashtbl.find_opt t.granted (node, block) with
    | Some grant ->
        ignore
          (span_at t ~track:node ~cat:"avoided" ~name:(Printf.sprintf "hit b%d" block)
             ~t0:(Machine.time t.m ~node) ~dur:0.0 ~parent:grant ());
        Hashtbl.remove t.granted (node, block)
    | None -> ()
  end

let on_charge t ~node bucket ~us =
  let bi = Machine.bucket_index bucket in
  t.since_seal <- true;
  if t.in_barrier then begin
    Timeline.add_fill t.tl ~node ~bucket:bi ~us;
    if us > 0.0 then
      ignore
        (Timeline.span t.tl ~track:node ~cat:"barrier" ~name:t.barrier_label
           ~t0:(Machine.time t.m ~node) ~dur:us ());
    t.barrier_left <- t.barrier_left - 1;
    if t.barrier_left = 0 then begin
      let label = Printf.sprintf "%s/%s" (phase_label t) t.barrier_label in
      t.in_barrier <- false;
      seal t ~label ~t1:t.barrier_release
    end
  end
  else begin
    Timeline.add_charge t.tl ~node ~bucket:bi ~us;
    if bucket = Machine.Compute then close_chain t node
    else begin
      (* extend (or open) the node's chain for this bucket *)
      let base = Machine.time t.m ~node in
      if t.chain_bucket.(node) <> bi then begin
        t.chain_bucket.(node) <- bi;
        t.chain_id.(node) <- -1;
        t.chain_end.(node) <- base
      end;
      let parent = t.chain_id.(node) in
      let legs = List.rev t.legs in
      t.legs <- [];
      (match legs with
      | [] ->
          let cat, name =
            match t.pending_fault with
            | Some (n, b, w) when n = node ->
                t.pending_fault <- None;
                ("fault", Printf.sprintf "miss %s b%d" (if w then "w" else "r") b)
            | _ -> (
                match bucket with
                | Machine.Presend -> ("presend", "plan")
                | _ -> ("wait", Machine.bucket_name bucket))
          in
          t.chain_id.(node) <- span_at t ~track:node ~cat ~name ~t0:base ~dur:us ~parent ()
      | legs ->
          let costs =
            List.map (fun (_, _, _, bytes) -> Network.msg_cost t.net ~bytes) legs
          in
          let sum = List.fold_left ( +. ) 0.0 costs in
          let sequential = sum <= us +. 1e-6 in
          let pos = ref base and last = ref parent and last_end = ref base in
          List.iter2
            (fun ((src, dst, kind, bytes) : int * int * Trace.msg_kind * int) cost ->
              let ki = Trace.msg_kind_index kind in
              Timeline.add_kind_cost t.tl ~node ~kind:ki ~cost;
              let name = Printf.sprintf "%s %dB" (Trace.msg_kind_name kind) bytes in
              let flow_dst = if dst >= 0 && dst < t.nnodes && dst <> src then dst else -1 in
              if sequential then begin
                (* legs laid end-to-start as a chain; [span_at] pins each
                   start to the previous leg's exact end *)
                let id =
                  span_at t ~track:src ~cat:"msg" ~name ~t0:!pos ~dur:cost ~parent:!last
                    ~flow_dst ()
                in
                pos := Timeline.span_end t.tl id;
                last := id;
                last_end := !pos
              end
              else begin
                (* overlapped sends (one node fanning out invalidations)
                   are charged less than the sum of their legs: they all
                   start at [base] as *siblings* of the pre-batch chain
                   span (chaining same-start spans would break
                   happens-before), capped at the charge so none outlives
                   it *)
                let id =
                  span_at t ~track:src ~cat:"msg" ~name ~t0:base
                    ~dur:(Float.min cost us) ~parent ~flow_dst ()
                in
                let e = Timeline.span_end t.tl id in
                if e >= !last_end then begin
                  last := id;
                  last_end := e
                end
              end)
            legs costs;
          t.chain_id.(node) <- !last);
      t.chain_end.(node) <- base +. us
    end
  end

let on_reset t =
  Timeline.reset t.tl;
  clear_chains t;
  t.pending_fault <- None;
  t.in_barrier <- false;
  t.cur_phase <- -1;
  t.phase_open <- false;
  t.since_seal <- false;
  Hashtbl.reset t.granted

(* -- trace events --------------------------------------------------------- *)

let global_track t = t.nnodes

let on_event t (ev : Trace.event) =
  match ev with
  | Trace.Fault { node; block; write } -> t.pending_fault <- Some (node, block, write)
  | Trace.Msg { src; dst; bytes; kind } -> t.legs <- (src, dst, kind, bytes) :: t.legs
  | Trace.Barrier { bucket } ->
      t.in_barrier <- true;
      t.barrier_left <- t.nnodes;
      t.barrier_label <- bucket;
      (* same expression the machine evaluates right after this event, on
         the same stats — bit-identical release time *)
      t.barrier_release <-
        Machine.max_time t.m +. Network.barrier_cost t.net ~nodes:t.nnodes;
      clear_chains t
  | Trace.Phase_begin { phase } ->
      t.cur_phase <- phase;
      t.phase_open <- true;
      Hashtbl.reset t.granted;
      ignore
        (Timeline.span t.tl ~track:(global_track t) ~cat:"phase"
           ~name:(Printf.sprintf "p%d" phase) ~t0:(Machine.max_time t.m) ~dur:0.0 ())
  | Trace.Phase_end { phase = _ } -> t.phase_open <- false
  | Trace.Presend { phase = _; block; dst; write } ->
      let home = Machine.home t.m block in
      let id =
        span_at t ~track:dst ~cat:"grant"
          ~name:(Printf.sprintf "grant %s b%d" (if write then "w" else "r") block)
          ~t0:(Machine.time t.m ~node:home) ~dur:0.0 ~parent:t.chain_id.(home) ()
      in
      Hashtbl.replace t.granted (dst, block) id
  | Trace.Retry { node; block; attempt } ->
      ignore
        (span_at t ~track:node ~cat:"retry"
           ~name:(Printf.sprintf "retry b%d #%d" block attempt) ~t0:(Machine.time t.m ~node)
           ~dur:0.0 ~parent:t.chain_id.(node) ())
  | Trace.Presend_fallback { phase = _; block; node; write = _ } ->
      ignore
        (Timeline.span t.tl ~track:node ~cat:"fallback"
           ~name:(Printf.sprintf "fallback b%d" block) ~t0:(Machine.time t.m ~node) ~dur:0.0 ())
  | Trace.Msg_drop { src; dst = _; kind } ->
      ignore
        (Timeline.span t.tl ~track:src ~cat:"drop"
           ~name:("drop " ^ Trace.msg_kind_name kind) ~t0:(Machine.time t.m ~node:src)
           ~dur:0.0 ())
  | Trace.Sched_flush { phase } ->
      ignore
        (Timeline.span t.tl ~track:(global_track t) ~cat:"sched"
           ~name:(Printf.sprintf "flush p%d" phase) ~t0:(Machine.max_time t.m) ~dur:0.0 ())
  | Trace.Sched_corrupt { phase; block; node = _ } ->
      ignore
        (Timeline.span t.tl ~track:(global_track t) ~cat:"sched"
           ~name:(Printf.sprintf "corrupt p%d b%d" phase block) ~t0:(Machine.max_time t.m)
           ~dur:0.0 ())
  | Trace.Init _ | Trace.Alloc _ | Trace.Access _ | Trace.Tag_change _
  | Trace.Sched_record _ | Trace.Sched_conflict _ ->
      ()

(* -- lifecycle ------------------------------------------------------------ *)

let attach m =
  let nnodes = Machine.num_nodes m in
  let t =
    {
      m;
      tl = Timeline.create ~nodes:nnodes ~buckets:bucket_names ~kinds:kind_names;
      net = Machine.net m;
      nnodes;
      detach = ignore;
      chain_id = Array.make nnodes (-1);
      chain_end = Array.make nnodes 0.0;
      chain_bucket = Array.make nnodes (-1);
      pending_fault = None;
      legs = [];
      in_barrier = false;
      barrier_left = 0;
      barrier_label = "";
      barrier_release = 0.0;
      cur_phase = -1;
      phase_open = false;
      since_seal = false;
      granted = Hashtbl.create 64;
    }
  in
  t.detach <-
    Machine.observe m
      {
        Machine.no_observer with
        on_event = Some (on_event t);
        on_access = Some (fun ~node ~addr ~write:_ ~faulted -> on_access t ~node ~addr ~faulted);
        on_charge = Some (fun ~node bucket ~us -> on_charge t ~node bucket ~us);
        on_reset = Some (fun () -> on_reset t);
      };
  t

let detach t = t.detach ()

let finish t =
  if t.since_seal then seal t ~label:(Printf.sprintf "%s/tail" (phase_label t)) ~t1:(Machine.max_time t.m);
  t.tl

let timeline t = t.tl

type residual = { r_node : int; r_bucket : string; r_expected : float; r_got : float }

let check t =
  let out = ref [] in
  for node = t.nnodes - 1 downto 0 do
    List.iteri
      (fun bi bucket ->
        let expected = Machine.bucket_time t.m ~node bucket in
        let got = Timeline.total t.tl ~node ~bucket:bi in
        if not (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got)) then
          out :=
            { r_node = node; r_bucket = Machine.bucket_name bucket; r_expected = expected; r_got = got }
            :: !out)
      Machine.all_buckets
  done;
  !out
