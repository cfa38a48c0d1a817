open Ccdsm_util
module Network = Ccdsm_tempest.Network
module Machine = Ccdsm_tempest.Machine
module Schedule = Ccdsm_core.Schedule
module Cost = Ccdsm_proto.Cost

(* Time buckets, in the [Machine.all_buckets] order profile bucket arrays
   use.  The model prices only the two protocol buckets: Compute is
   block-size invariant by construction, and Synch (barrier skew) rides the
   actual-minus-priced residual like background traffic does. *)
let nmb = List.length Machine.all_buckets

let bucket_index bk =
  let rec go i = function
    | [] -> assert false
    | b :: rest -> if b = bk then i else go (i + 1) rest
  in
  go 0 Machine.all_buckets

let wait_idx = bucket_index Machine.Remote_wait
let pre_idx = bucket_index Machine.Presend

type protocol =
  | Stache
  | Predictive of { coalesce : bool; conflict_action : [ `Ignore | `First_stable ] }

let protocol_label = function Stache -> "stache" | Predictive _ -> "predictive"

let protocol_of_name = function
  | "stache" -> Ok Stache
  | "predictive" -> Ok (Predictive { coalesce = true; conflict_action = `Ignore })
  | other ->
      Error
        (Printf.sprintf "protocol %S is not covered by the analytical model (modeled: stache, predictive)"
           other)

type seg_pred = {
  pseq : int;
  pphase : int;
  pname : string;
  read_faults : int;
  write_faults : int;
  presends : int;
  msgs : int;
  bytes : int;
  msgs_total : int;
  bytes_total : int;
  bucket_us : float array;
}

type prediction = {
  p_block_bytes : int;
  p_protocol : string;
  segs : seg_pred array;
  faults : int;
  presends : int;
  msgs : int;
  bytes : int;
  p_bucket_us : float array;
  p_wall_us : float;
}

exception Err of string

let ceil_div a b = (a + b - 1) / b

(* -- flattening (geometry-independent, done once per predictor) -----------

   Everything about the profile that does not depend on the target block
   size is precomputed here, so evaluating one more block size costs a
   single pass over packed int arrays:

   - the allocation stream is replayed through the profiled geometry's
     allocator mirror (fresh allocations block-aligned, shared-heap bump
     arenas retraced; the recorded [spilled] flags double-check the mirror)
     and compacted to one record per allocation, each tagged with its index
     in the address-sorted entry table;
   - every access run is resolved to the entry containing its first word
     (one binary search per run, here rather than per replay);
   - the per-segment event streams are packed into flat int arrays
     (EV_STRIDE ints per event) so the replay loop runs over unboxed
     sequential memory. *)

type alloc_rec = {
  ar_heap : bool;  (* logical shared-heap request vs raw Machine.alloc *)
  ar_words : int;
  ar_home : int;  (* Alloc home, or the requesting node for heap allocs *)
  ar_idx : int;  (* index in the address-sorted entry table *)
}

(* Packed event records: [code; addr; stride; count; eidx].
   code = node * 2 + write for a run, -1 for a schedule flush (addr holds
   the flushed phase id). *)
let ev_stride = 5

type flat = {
  f_nodes : int;
  f_arena : int;  (* shared-heap arena refill, blocks *)
  f_wpb_p : int;
  f_nentries : int;
  f_e_p : int array;  (* profiled word start per entry, ascending *)
  f_e_len : int array;
  f_allocs : alloc_rec array;
  f_segs : int array array;  (* packed events per segment *)
}

type arena = { mutable cur : int; mutable limit : int }

let flatten (p : Profile.t) =
  let wpb_p = p.Profile.block_bytes / 8 in
  let arena_blocks = p.Profile.arena_blocks in
  let nb_p = ref 0 in
  let fresh_p words =
    let a = !nb_p * wpb_p in
    nb_p := !nb_p + ceil_div words wpb_p;
    a
  in
  let arenas_p = Array.init p.Profile.nodes (fun _ -> { cur = 0; limit = 0 }) in
  let heap_alloc_p node words =
    if words >= arena_blocks * wpb_p then (fresh_p words, true)
    else begin
      let a = arenas_p.(node) in
      let sp = a.cur + words > a.limit in
      if sp then begin
        a.cur <- fresh_p (arena_blocks * wpb_p);
        a.limit <- a.cur + (arena_blocks * wpb_p)
      end;
      let addr = a.cur in
      a.cur <- a.cur + words;
      (addr, sp)
    end
  in
  (* Pass 1: the allocation stream, in order, with profiled-geometry
     addresses. *)
  let allocs = ref [] in
  Array.iter
    (fun (s : Profile.segment) ->
      Array.iter
        (fun ev ->
          match ev with
          | Profile.Run _ | Profile.Flush _ -> ()
          | Profile.Alloc { words; home } ->
              let ap = fresh_p words in
              allocs := (false, words, home, ap) :: !allocs
          | Profile.Heap_alloc { node; words; spilled } ->
              let ap, sp = heap_alloc_p node words in
              if sp <> spilled then
                raise
                  (Err
                     (Printf.sprintf
                        "heap mirror divergence in segment %d (node %d, %d words): profile says \
                         spilled=%b, mirror says %b"
                        s.Profile.seq node words spilled sp));
              allocs := (true, words, node, ap) :: !allocs)
        s.Profile.events)
    p.Profile.segments;
  let allocs = Array.of_list (List.rev !allocs) in
  let n = Array.length allocs in
  (* The entry table sorted by profiled address; the sort order is
     geometry-independent because profiled addresses are. *)
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare (let _, _, _, ap = allocs.(i) in ap) (let _, _, _, ap = allocs.(j) in ap)) order;
  let e_p = Array.make (max 1 n) max_int in
  let e_len = Array.make (max 1 n) 0 in
  let rank = Array.make n 0 in
  Array.iteri
    (fun pos i ->
      let _, words, _, ap = allocs.(i) in
      e_p.(pos) <- ap;
      e_len.(pos) <- words;
      rank.(i) <- pos)
    order;
  let f_allocs =
    Array.mapi
      (fun i (heap, words, home, _) -> { ar_heap = heap; ar_words = words; ar_home = home; ar_idx = rank.(i) })
      allocs
  in
  (* Entry lookup for pass 2: one binary search per run. *)
  let find_entry addr =
    let lo = ref 0 and hi = ref (n - 1) in
    let found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if addr < e_p.(mid) then hi := mid - 1
      else if addr >= e_p.(mid) + e_len.(mid) then lo := mid + 1
      else found := mid
    done;
    if !found < 0 then
      raise (Err (Printf.sprintf "profile event references unallocated address %d" addr));
    !found
  in
  (* Pass 2: pack each segment's events. *)
  let f_segs =
    Array.map
      (fun (s : Profile.segment) ->
        let count =
          Array.fold_left
            (fun acc ev ->
              match ev with
              | Profile.Run _ | Profile.Flush _ -> acc + 1
              | Profile.Alloc _ | Profile.Heap_alloc _ -> acc)
            0 s.Profile.events
        in
        let packed = Array.make (count * ev_stride) 0 in
        let w = ref 0 in
        Array.iter
          (fun ev ->
            match ev with
            | Profile.Alloc _ | Profile.Heap_alloc _ -> ()
            | Profile.Flush { fphase } ->
                packed.(!w) <- -1;
                packed.(!w + 1) <- fphase;
                w := !w + ev_stride
            | Profile.Run { node; write; addr; stride; count = cnt } ->
                packed.(!w) <- (node * 2) + if write then 1 else 0;
                packed.(!w + 1) <- addr;
                packed.(!w + 2) <- stride;
                packed.(!w + 3) <- cnt;
                packed.(!w + 4) <- find_entry addr;
                w := !w + ev_stride)
          s.Profile.events;
        packed)
      p.Profile.segments
  in
  {
    f_nodes = p.Profile.nodes;
    f_arena = arena_blocks;
    f_wpb_p = wpb_p;
    f_nentries = n;
    f_e_p = e_p;
    f_e_len = e_len;
    f_allocs;
    f_segs;
  }

(* -- per-geometry layout --------------------------------------------------

   The target side of the address map: replay the compact allocation stream
   through the target geometry's allocator mirror.  Only allocations are
   touched, so this is cheap relative to the replay itself. *)

type layout = {
  l_nblocks : int;
  l_homes : int array;  (* per target block *)
  l_e_q : int array;  (* target word start per entry (f_e_p order) *)
}

let build_layout (f : flat) ~wpb_t =
  let nb_t = ref 0 in
  let homes = ref (Array.make 1024 0) in
  let fresh_t words home =
    let q = !nb_t * wpb_t in
    let k = ceil_div words wpb_t in
    if !nb_t + k > Array.length !homes then begin
      let cap = ref (Array.length !homes * 2) in
      while !nb_t + k > !cap do
        cap := !cap * 2
      done;
      let h = Array.make !cap 0 in
      Array.blit !homes 0 h 0 !nb_t;
      homes := h
    end;
    Array.fill !homes !nb_t k home;
    nb_t := !nb_t + k;
    q
  in
  let arenas_t = Array.init f.f_nodes (fun _ -> { cur = 0; limit = 0 }) in
  let heap_alloc_t node words =
    if words >= f.f_arena * wpb_t then fresh_t words node
    else begin
      let a = arenas_t.(node) in
      if a.cur + words > a.limit then begin
        a.cur <- fresh_t (f.f_arena * wpb_t) node;
        a.limit <- a.cur + (f.f_arena * wpb_t)
      end;
      let addr = a.cur in
      a.cur <- a.cur + words;
      addr
    end
  in
  let e_q = Array.make (max 1 f.f_nentries) 0 in
  Array.iter
    (fun ar ->
      let aq =
        if ar.ar_heap then heap_alloc_t ar.ar_home ar.ar_words
        else fresh_t ar.ar_words ar.ar_home
      in
      e_q.(ar.ar_idx) <- aq)
    f.f_allocs;
  { l_nblocks = !nb_t; l_homes = Array.sub !homes 0 !nb_t; l_e_q = e_q }

(* -- replay pass --------------------------------------------------------- *)

type dirent = Excl of int | Shared of Nodeset.t

(* Raw per-segment replay results: protocol traffic, plus the priced time
   that traffic charges to the two protocol buckets (priced from the same
   [Cost] table as the engine and the predictive protocol). *)
type seg_raw = {
  mutable r_rf : int;
  mutable r_wf : int;
  mutable r_gr : int;
  mutable r_msgs : int;
  mutable r_bytes : int;
  mutable r_wait : float;  (* priced Remote_wait, summed over nodes, us *)
  mutable r_pre : float;  (* priced Presend, summed over nodes, us *)
}

let tag_inv = '\000'
let tag_ro = '\001'
let tag_rw = '\002'

let log2_exact n =
  let s = ref 0 in
  while 1 lsl !s < n do
    incr s
  done;
  !s

let replay (p : Profile.t) (f : flat) ~net ~block_bytes ~protocol =
  let cost = Cost.make net ~block_bytes in
  let wpb_t = block_bytes / 8 in
  let wpb_shift = log2_exact wpb_t in
  let l = build_layout f ~wpb_t in
  let e_p = f.f_e_p and e_len = f.f_e_len and e_q = l.l_e_q in
  let nent = f.f_nentries in
  let nnodes = p.Profile.nodes in
  let nb = l.l_nblocks in
  let tags = Bytes.make (max 1 (nnodes * nb)) tag_inv in
  let tag node b = Bytes.unsafe_get tags ((node * nb) + b) in
  let set_tag node b v = Bytes.unsafe_set tags ((node * nb) + b) v in
  Array.iteri (fun b h -> set_tag h b tag_rw) l.l_homes;
  let dir = Array.init nb (fun b -> Excl l.l_homes.(b)) in
  let schedules = Inttbl.create 16 in
  let schedule_for phase =
    match Inttbl.find_opt schedules phase with
    | Some s -> s
    | None ->
        let s = Schedule.create () in
        Inttbl.add schedules phase s;
        s
  in
  let cur = { r_rf = 0; r_wf = 0; r_gr = 0; r_msgs = 0; r_bytes = 0; r_wait = 0.0; r_pre = 0.0 } in
  let count n by =
    cur.r_msgs <- cur.r_msgs + n;
    cur.r_bytes <- cur.r_bytes + by
  in
  (* The engine's transitions at block granularity, priced from [Cost]:
     demand traffic lands in Remote_wait, presend traffic in Presend. *)
  let wait c = cur.r_wait <- cur.r_wait +. c in
  let pre c = cur.r_pre <- cur.r_pre +. c in
  let fetch c =
    count (Cost.fetch_msgs c) (Cost.fetch_bytes cost c);
    wait (Cost.fetch_us cost c)
  in
  let demand_read node b =
    wait net.Network.fault_us;
    let h = l.l_homes.(b) in
    match dir.(b) with
    | Shared readers ->
        if node <> h then fetch Cost.Reply;
        set_tag node b tag_ro;
        dir.(b) <- Shared (Nodeset.add node readers)
    | Excl o ->
        fetch (Cost.owner_fetch ~node ~home:h ~owner:o);
        set_tag o b tag_ro;
        set_tag node b tag_ro;
        dir.(b) <- Shared (Nodeset.add node (Nodeset.singleton o))
  in
  let demand_write node b =
    wait net.Network.fault_us;
    let h = l.l_homes.(b) in
    match dir.(b) with
    | Excl o ->
        fetch (Cost.owner_fetch ~node ~home:h ~owner:o);
        set_tag o b tag_inv;
        set_tag node b tag_rw;
        dir.(b) <- Excl node
    | Shared readers ->
        if node <> h then fetch (if Nodeset.mem node readers then Cost.Upgrade else Cost.Reply);
        let others = Nodeset.remove node readers in
        let k = Nodeset.cardinal (Nodeset.remove h others) in
        if k > 0 then begin
          count (Cost.inval_msgs k) (Cost.inval_bytes cost k);
          wait (Cost.inval_us cost k)
        end;
        Nodeset.iter (fun r -> set_tag r b tag_inv) others;
        set_tag node b tag_rw;
        dir.(b) <- Excl node
  in
  (* The predictive protocol's presend scan (fault-free) and flush. *)
  let presend phase =
    match (protocol, Inttbl.find_opt schedules phase) with
    | Stache, _ | _, None -> ()
    | Predictive _, Some sched when Schedule.cardinal sched = 0 -> ()
    | Predictive { coalesce; conflict_action }, Some sched ->
        (* Per-node Presend charges of this flush.  The protocol ends every
           flush with a barrier into the Presend bucket, which lifts every
           node to the slowest node's time plus the barrier cost — so the
           bucket's total delta is nodes * (max per-node charge + barrier
           cost), not the plain sum of charges.  All flush charges land on
           home nodes (the home pays for every leg it waits on). *)
        let flushq = Array.make nnodes 0.0 in
        let at_home h c = flushq.(h) <- flushq.(h) +. c in
        let q = Cost.queues () in
        Schedule.iter_sorted sched (fun b mark ->
            let h = l.l_homes.(b) in
            at_home h Cost.presend_block_us;
            match Schedule.presend_mark conflict_action mark with
            | Schedule.Conflict _ -> ()
            | Schedule.Readers rs ->
                (match dir.(b) with
                | Excl o ->
                    set_tag o b tag_ro;
                    dir.(b) <- Shared (Nodeset.singleton o);
                    if o <> h then Cost.push q.recall ~src:o ~dst:h b
                | Shared _ -> ());
                let cur_set = match dir.(b) with Shared s -> s | Excl _ -> assert false in
                let missing = Nodeset.diff rs cur_set in
                if not (Nodeset.is_empty missing) then begin
                  Nodeset.iter
                    (fun r ->
                      set_tag r b tag_ro;
                      cur.r_gr <- cur.r_gr + 1;
                      if r <> h then Cost.push q.data ~src:h ~dst:r b)
                    missing;
                  dir.(b) <- Shared (Nodeset.union cur_set rs)
                end
            | Schedule.Writer w ->
                if tag w b <> tag_rw then begin
                  let had_copy = tag w b <> tag_inv in
                  (match dir.(b) with
                  | Excl o ->
                      set_tag o b tag_inv;
                      if o <> h then Cost.push q.recall ~src:o ~dst:h b
                  | Shared readers ->
                      Nodeset.iter
                        (fun r ->
                          set_tag r b tag_inv;
                          if r <> h then Cost.bump q.inval ~src:h ~dst:r)
                        (Nodeset.remove w readers));
                  set_tag w b tag_rw;
                  cur.r_gr <- cur.r_gr + 1;
                  (if w <> h then
                     if had_copy then Cost.bump q.grant ~src:h ~dst:w
                     else Cost.push q.data ~src:h ~dst:w b);
                  dir.(b) <- Excl w
                end);
        List.iter
          (fun (g : Cost.msg) ->
            count 1 g.bytes;
            at_home g.payer g.us)
          (Cost.flush cost ~coalesce q);
        (* The closing barrier of the flush. *)
        let mx = Array.fold_left Float.max 0.0 flushq in
        pre (float_of_int nnodes *. (mx +. Network.barrier_cost net ~nodes:nnodes))
  in
  let predictive = match protocol with Predictive _ -> true | Stache -> false in
  Array.mapi
    (fun si (s : Profile.segment) ->
      cur.r_rf <- 0;
      cur.r_wf <- 0;
      cur.r_gr <- 0;
      cur.r_msgs <- 0;
      cur.r_bytes <- 0;
      cur.r_wait <- 0.0;
      cur.r_pre <- 0.0;
      if predictive && s.Profile.presend && s.Profile.phase >= 0 then presend s.Profile.phase;
      let record = predictive && s.Profile.record && s.Profile.phase >= 0 in
      let sched = if record then Some (schedule_for s.Profile.phase) else None in
      let ev = f.f_segs.(si) in
      let len = Array.length ev in
      let i = ref 0 in
      while !i < len do
        let code = Array.unsafe_get ev !i in
        if code < 0 then begin
          (* schedule flush *)
          (match Inttbl.find_opt schedules (Array.unsafe_get ev (!i + 1)) with
          | Some sc -> Schedule.clear sc
          | None -> ());
          i := !i + ev_stride
        end
        else begin
          let node = code lsr 1 in
          let write = code land 1 = 1 in
          let addr = Array.unsafe_get ev (!i + 1) in
          let cnt = Array.unsafe_get ev (!i + 3) in
          if cnt = 1 then begin
            (* Dominant case (first-touch compression leaves mostly
               singleton runs): the precomputed entry index is exact for
               the run's first — here only — word, so there is no entry
               walk and no skip arithmetic. *)
            let eidx = Array.unsafe_get ev (!i + 4) in
            let q = Array.unsafe_get e_q eidx + (addr - Array.unsafe_get e_p eidx) in
            let b = q lsr wpb_shift in
            if write then begin
              if tag node b <> tag_rw then begin
                cur.r_wf <- cur.r_wf + 1;
                demand_write node b;
                match sched with
                | Some sc ->
                    wait Cost.record_us;
                    Schedule.record_write sc b ~writer:node
                | None -> ()
              end
            end
            else if tag node b = tag_inv then begin
              cur.r_rf <- cur.r_rf + 1;
              demand_read node b;
              match sched with
              | Some sc ->
                  wait Cost.record_us;
                  Schedule.record_read sc b ~reader:node
              | None -> ()
            end
          end
          else begin
            let stride = Array.unsafe_get ev (!i + 2) in
            let idx = ref (Array.unsafe_get ev (!i + 4)) in
            let k = ref 0 in
            while !k < cnt do
              let a = addr + (!k * stride) in
              (* Walk to the entry containing [a]: precomputed for the run's
                 first word, monotone in the stride direction afterwards
                 (entries are address-sorted and runs rarely cross one). *)
              while
                !idx < nent
                && (a < Array.unsafe_get e_p !idx
                   || a >= Array.unsafe_get e_p !idx + Array.unsafe_get e_len !idx)
              do
                if a < Array.unsafe_get e_p !idx then decr idx else incr idx;
                if !idx < 0 then
                  raise (Err (Printf.sprintf "profile event references unallocated address %d" a))
              done;
              if !idx >= nent then
                raise (Err (Printf.sprintf "profile event references unallocated address %d" a));
              let q = Array.unsafe_get e_q !idx + (a - Array.unsafe_get e_p !idx) in
              let b = q lsr wpb_shift in
              (if write then begin
                 if tag node b <> tag_rw then begin
                   cur.r_wf <- cur.r_wf + 1;
                   demand_write node b;
                   match sched with
                   | Some sc ->
                    wait Cost.record_us;
                    Schedule.record_write sc b ~writer:node
                   | None -> ()
                 end
               end
               else if tag node b = tag_inv then begin
                 cur.r_rf <- cur.r_rf + 1;
                 demand_read node b;
                 match sched with
                 | Some sc ->
                  wait Cost.record_us;
                  Schedule.record_read sc b ~reader:node
                 | None -> ()
               end);
              (* Within a single run (one node, one op) every later word
                 landing in the same target block is a no-op: the word just
                 processed left the tag readable (read) or RW (write), fault
                 or not.  Skip straight to the run's next word in a
                 different block.  The skip is bounded by the entry's end
                 because the address map is only affine within one
                 allocation. *)
              if !k + 1 >= cnt then k := cnt
              else if stride = 0 then k := cnt
              else begin
                let skip =
                  let ent_steps =
                    if stride > 0 then
                      (Array.unsafe_get e_p !idx + Array.unsafe_get e_len !idx - 1 - a) / stride
                    else (a - Array.unsafe_get e_p !idx) / -stride
                  in
                  let blk_steps =
                    if stride > 0 then ((((b + 1) lsl wpb_shift) - 1) - q) / stride
                    else (q - (b lsl wpb_shift)) / -stride
                  in
                  Int.min (cnt - 1 - !k) (Int.min ent_steps blk_steps)
                in
                k := !k + 1 + Int.max 0 skip
              end
            done
          end;
          i := !i + ev_stride
        end
      done;
      {
        r_rf = cur.r_rf;
        r_wf = cur.r_wf;
        r_gr = cur.r_gr;
        r_msgs = cur.r_msgs;
        r_bytes = cur.r_bytes;
        r_wait = cur.r_wait;
        r_pre = cur.r_pre;
      })
    p.Profile.segments

(* -- prediction ---------------------------------------------------------- *)

let is_pow2 n = n > 0 && n land (n - 1) = 0

type predictor = {
  pr_profile : Profile.t;
  pr_net : Network.t;
  pr_protocol : protocol;
  pr_flat : flat;
  pr_base : seg_raw array;  (* baseline replay at the profiled geometry *)
}

let prepare (p : Profile.t) ~net ~protocol =
  (* The baseline replay at the profiled geometry under the profiled
     protocol anchors the per-segment residual: actual traffic minus
     replayed protocol traffic = background (reductions) that the model
     carries over unchanged, being block-size invariant. *)
  match
    match p.Profile.protocol with
    | "stache" -> Ok Stache
    | "predictive" ->
        Ok
          (match protocol with
          | Predictive _ as pr -> pr
          | Stache -> Predictive { coalesce = true; conflict_action = `Ignore })
    | other ->
        Error
          (Printf.sprintf
             "profile was collected under protocol %S, which the model cannot replay" other)
  with
  | Error e -> Error e
  | Ok base_protocol -> (
      match
        let flat = flatten p in
        let base =
          replay p flat ~net ~block_bytes:p.Profile.block_bytes ~protocol:base_protocol
        in
        (flat, base)
      with
      | exception Err msg -> Error msg
      | flat, base ->
          Ok
            {
              pr_profile = p;
              pr_net = net;
              pr_protocol = protocol;
              pr_flat = flat;
              pr_base = base;
            })

let eval ?(fudge_faults = 0) ?(fudge_wait_us = 0.0) pr ~block_bytes =
  if block_bytes < 8 || not (is_pow2 block_bytes) then
    Error (Printf.sprintf "block size %d: must be a power of two >= 8" block_bytes)
  else
    let p = pr.pr_profile in
    match
      replay p pr.pr_flat ~net:pr.pr_net ~block_bytes ~protocol:pr.pr_protocol
    with
    | exception Err msg -> Error msg
    | target ->
        let base = pr.pr_base in
        let segs =
          Array.mapi
            (fun i (s : Profile.segment) ->
              let t = target.(i) and b = base.(i) in
              (* Predicted bucket time = the profiled run's actual bucket
                 time, shifted by the priced-traffic delta between the
                 target and base replays.  At the profiled geometry the
                 delta is identically zero (same code, same inputs), so the
                 prediction degenerates to the actuals bit-for-bit; the
                 unpriced residual (compute, barrier skew, per-task
                 overhead) is carried over unchanged, mirroring the
                 msgs_total traffic carryover. *)
              let bucket_us =
                Array.init nmb (fun bi ->
                    let priced_t, priced_b =
                      if bi = wait_idx then (t.r_wait +. fudge_wait_us, b.r_wait)
                      else if bi = pre_idx then (t.r_pre, b.r_pre)
                      else (0.0, 0.0)
                    in
                    s.Profile.a_bucket_us.(bi) +. (priced_t -. priced_b))
              in
              {
                pseq = s.Profile.seq;
                pphase = s.Profile.phase;
                pname = s.Profile.name;
                read_faults = t.r_rf + fudge_faults;
                write_faults = t.r_wf;
                presends = t.r_gr;
                msgs = t.r_msgs;
                bytes = t.r_bytes;
                msgs_total = t.r_msgs + (s.Profile.a_msgs - b.r_msgs);
                bytes_total = t.r_bytes + (s.Profile.a_bytes - b.r_bytes);
                bucket_us;
              })
            p.Profile.segments
        in
        let sum f = Array.fold_left (fun acc s -> acc + f s) 0 segs in
        let p_bucket_us =
          Array.init nmb (fun bi ->
              Array.fold_left (fun acc s -> acc +. s.bucket_us.(bi)) p.Profile.out_bucket_us.(bi) segs)
        in
        Ok
          {
            p_block_bytes = block_bytes;
            p_protocol = protocol_label pr.pr_protocol;
            segs;
            faults = sum (fun s -> s.read_faults + s.write_faults);
            presends = sum (fun s -> s.presends);
            msgs = sum (fun s -> s.msgs_total) + p.Profile.out_msgs;
            bytes = sum (fun s -> s.bytes_total) + p.Profile.out_bytes;
            p_bucket_us;
            p_wall_us =
              Array.fold_left ( +. ) 0.0 p_bucket_us /. float_of_int p.Profile.nodes;
          }

let predict ?fudge_faults ?fudge_wait_us (p : Profile.t) ~net ~block_bytes ~protocol =
  if block_bytes < 8 || not (is_pow2 block_bytes) then
    Error (Printf.sprintf "block size %d: must be a power of two >= 8" block_bytes)
  else
    match prepare p ~net ~protocol with
    | Error e -> Error e
    | Ok pr -> eval ?fudge_faults ?fudge_wait_us pr ~block_bytes
