type addr = int
type block = int
type bucket = Compute | Remote_wait | Presend | Synch

let all_buckets = [ Compute; Remote_wait; Presend; Synch ]

let bucket_name = function
  | Compute -> "compute"
  | Remote_wait -> "remote_wait"
  | Presend -> "presend"
  | Synch -> "synch"

let bucket_index = function Compute -> 0 | Remote_wait -> 1 | Presend -> 2 | Synch -> 3

type config = { num_nodes : int; block_bytes : int; net : Network.t }

let default_config ?(num_nodes = 32) ?(block_bytes = 32) ?(net = Network.default) () =
  { num_nodes; block_bytes; net }

let local_access_us = 0.05

type counters = {
  mutable local_reads : int;
  mutable local_writes : int;
  mutable read_faults : int;
  mutable write_faults : int;
  mutable msgs : int;
  mutable bytes : int;
  mutable invalidations : int;
  mutable downgrades : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable presend_fallbacks : int;
}

let fresh_counters () =
  {
    local_reads = 0;
    local_writes = 0;
    read_faults = 0;
    write_faults = 0;
    msgs = 0;
    bytes = 0;
    invalidations = 0;
    downgrades = 0;
    retries = 0;
    timeouts = 0;
    presend_fallbacks = 0;
  }

type handlers = {
  on_read_fault : node:int -> block -> unit;
  on_write_fault : node:int -> block -> unit;
}

(* The sanitizer's per-access state (see the interface). *)
let history_len = 16

type audit = {
  ring : int array;
  mutable seen : int;
  mutable stamps : int array;
  mutable epoch : int;
  races : bool;
  mutable pending : bool;
}

let[@inline] record au ~node ~addr ~write ~faulted =
  let i = 2 * (au.seen land (history_len - 1)) in
  Array.unsafe_set au.ring i node;
  Array.unsafe_set au.ring (i + 1) ((addr lsl 2) lor (Bool.to_int faulted lsl 1) lor Bool.to_int write);
  au.seen <- au.seen + 1

let claim au =
  let i = au.seen land (history_len - 1) in
  Array.unsafe_set au.ring (2 * i) (-1);
  au.seen <- au.seen + 1;
  i

let recorded au i =
  let node = au.ring.(2 * i) and bits = au.ring.((2 * i) + 1) in
  if node < 0 then None
  else Some (Trace.Access { node; addr = bits lsr 2; write = bits land 1 = 1; faulted = bits land 2 = 2 })

(* Observers (see the interface).  [observe] files each hook an observer
   implements into that hook's dispatch array in [t], so a hook calls only
   the observers that implement it; one [observed] flag guards every hook
   site. *)
type observer = {
  on_event : (Trace.event -> unit) option;
  on_touch : (node:int -> addr:addr -> write:bool -> unit) option;
  on_access : (node:int -> addr:addr -> write:bool -> faulted:bool -> unit) option;
  on_charge : (node:int -> bucket -> us:float -> unit) option;
  on_alloc : (words:int -> home:int -> unit) option;
  on_heap_alloc : (node:int -> words:int -> spilled:bool -> unit) option;
  on_phase : (enter:bool -> id:int -> name:string -> scheduled:bool -> unit) option;
  on_reset : (unit -> unit) option;
  audit : audit option;
}

let no_observer =
  {
    on_event = None;
    on_touch = None;
    on_access = None;
    on_charge = None;
    on_alloc = None;
    on_heap_alloc = None;
    on_phase = None;
    on_reset = None;
    audit = None;
  }

module Obs = Ccdsm_obs.Obs
module A1 = Bigarray.Array1

type tag_table = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t
type f64_table = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

(* Slots within a node's stride-16 row of the flat per-node stats table:
   the four time buckets first (Compute = 0 matches [bucket_index]), then
   the counters, held as exactly-integer float64s so the per-access
   bookkeeping — count bump plus Compute charge — touches one table.  The
   stride is a power of two so the row base is a shift, not a multiply. *)
let stat_shift = 4
let f_local_reads = 4
let f_local_writes = 5
let f_read_faults = 6
let f_write_faults = 7
let f_msgs = 8
let f_bytes = 9
let f_invalidations = 10
let f_downgrades = 11
let f_retries = 12
let f_timeouts = 13
let f_presend_fallbacks = 14

(* Metrics handles, resolved once at machine creation when a global registry
   is installed ([Obs.set_global]); the coherence paths then only bump a
   counter through a pre-resolved handle.  [None] = no registry = zero
   metrics work.  They are not an observer: they fire per coherence action,
   and as an observer they would put metered runs on the observed access
   path. *)
type meters = {
  reg : Obs.Registry.t;
  tag_trans : Obs.Counter.t array;  (* 9 slots: from_tag * 3 + to_tag *)
  send_msgs : Obs.Counter.t array;  (* per Trace.msg_kind *)
  send_bytes : Obs.Counter.t array;
}

(* All per-(node, block) and per-node state lives in flat Bigarray tables so
   a 1024-node machine over millions of blocks is a handful of contiguous,
   GC-opaque allocations rather than thousands of per-node heap objects:

     tags   : char,    index (node lsl cap_shift)  lor block
     stats  : float64, index (node lsl stat_shift) lor (bucket | counter slot)
     mem    : float64, index addr (word)

   Block capacity is kept a power of two so every row base is a shift. *)
type t = {
  cfg : config;
  nnodes : int;  (* = cfg.num_nodes, here to keep the access fast path flat *)
  words_per_block : int;
  block_shift : int;  (* log2 words_per_block: block_of is a shift, not a division *)
  mutable tags : tag_table;  (* nnodes lsl cap_shift bytes *)
  mutable cap_blocks : int;  (* tag-table block capacity, always a power of two *)
  mutable cap_shift : int;  (* log2 cap_blocks *)
  stats : f64_table;
  mutable mem : f64_table;
  mutable homes : int array;  (* per block *)
  mutable nblocks : int;  (* blocks allocated so far *)
  mutable word_limit : int;  (* = nblocks * words_per_block *)
  mutable handlers : handlers option;
  mutable faults : Faults.t option;  (* fault injector; None = reliable network *)
  meters : meters option;
  mutable observers : (unit ref * observer) list;  (* attach order, keyed for detach *)
  mutable observed : bool;  (* = observers <> [], checked on every access *)
  (* the per-hook dispatch arrays, rebuilt from [observers] *)
  mutable events : (Trace.event -> unit) array;
  mutable touches : (node:int -> addr:addr -> write:bool -> unit) array;
  mutable accesses : (node:int -> addr:addr -> write:bool -> faulted:bool -> unit) array;
  mutable charges : (node:int -> bucket -> us:float -> unit) array;
  mutable allocs : (words:int -> home:int -> unit) array;
  mutable heap_allocs : (node:int -> words:int -> spilled:bool -> unit) array;
  mutable phases : (enter:bool -> id:int -> name:string -> scheduled:bool -> unit) array;
  mutable resets : (unit -> unit) array;
  mutable audit : audit option;  (* that of the only touch or access observer *)
}

(* Tag bytes as stored in the flat tag table.  Literal so the per-access tag
   compare is against an immediate, not a load from this module's global
   block; the startup assert pins them to the one source of truth in Tag. *)
let tag_invalid_char = '\000'
let tag_read_write_char = '\002'

let () =
  assert (Char.equal tag_invalid_char (Tag.to_char Tag.Invalid));
  assert (Char.equal tag_read_write_char (Tag.to_char Tag.Read_write))

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k n = if n <= 1 then k else go (k + 1) (n lsr 1) in
  go 0 n

(* -- observers ------------------------------------------------------------ *)

let observed t = t.observed

let rebuild t =
  let pick f = Array.of_list (List.filter_map (fun (_, o) -> f o) t.observers) in
  t.events <- pick (fun o -> o.on_event);
  t.touches <- pick (fun o -> o.on_touch);
  t.accesses <- pick (fun o -> o.on_access);
  t.charges <- pick (fun o -> o.on_charge);
  t.allocs <- pick (fun o -> o.on_alloc);
  t.heap_allocs <- pick (fun o -> o.on_heap_alloc);
  t.phases <- pick (fun o -> o.on_phase);
  t.resets <- pick (fun o -> o.on_reset);
  let watches (_, o) = Option.is_some o.on_touch || Option.is_some o.on_access in
  t.audit <-
    (match List.filter watches t.observers with
    | [ (_, { on_touch = None; audit; _ }) ] -> audit
    | _ -> None);
  t.observed <- not (List.is_empty t.observers)

let observe t o =
  let key = ref () in
  t.observers <- t.observers @ [ (key, o) ];
  rebuild t;
  fun () ->
    t.observers <- List.filter (fun (k, _) -> k != key) t.observers;
    rebuild t

let subscribe t f =
  let (_ : unit -> unit) =
    observe t
      {
        no_observer with
        on_event = Some f;
        on_access =
          Some (fun ~node ~addr ~write ~faulted -> f (Trace.Access { node; addr; write; faulted }));
      }
  in
  ()

let emit t ev =
  let hs = t.events in
  for i = 0 to Array.length hs - 1 do
    (Array.unsafe_get hs i) ev
  done

(* Inlined behind the [observed] test: a hook that no observer implements
   costs a length test, not a call. *)
let[@inline] charged t ~node bucket ~us =
  let hs = t.charges in
  for i = 0 to Array.length hs - 1 do
    (Array.unsafe_get hs i) ~node bucket ~us
  done

let notify_heap_alloc t ~node ~words ~spilled =
  if t.observed then Array.iter (fun f -> f ~node ~words ~spilled) t.heap_allocs

let notify_phase t ~enter ~id ~name ~scheduled =
  if t.observed then Array.iter (fun f -> f ~enter ~id ~name ~scheduled) t.phases

let obs t = match t.meters with Some m -> Some m.reg | None -> None

let create cfg =
  if cfg.num_nodes < 1 || cfg.num_nodes > Ccdsm_util.Nodeset.max_nodes then
    invalid_arg "Machine.create: num_nodes out of range";
  if (not (is_pow2 cfg.block_bytes)) || cfg.block_bytes < 8 then
    invalid_arg "Machine.create: block_bytes must be a power of two >= 8";
  let words_per_block = cfg.block_bytes / 8 in
  let meters =
    match Obs.global () with
    | None -> None
    | Some reg ->
        (* Indexed by tag byte (see [Tag.to_char]), so the fast path can go
           straight from stored bytes to a counter slot. *)
        let tag_name i = Tag.to_string (Tag.of_char (Char.chr i)) in
        let tag_trans =
          Array.init 9 (fun i ->
              Obs.Registry.counter reg
                ~labels:[ ("from", tag_name (i / 3)); ("to", tag_name (i mod 3)) ]
                "ccdsm_tag_transitions_total")
        in
        let per_kind name =
          Array.of_list
            (List.map
               (fun k ->
                 Obs.Registry.counter reg ~labels:[ ("kind", Trace.msg_kind_name k) ] name)
               Trace.all_msg_kinds)
        in
        Some
          {
            reg;
            tag_trans;
            send_msgs = per_kind "ccdsm_net_send_total";
            send_bytes = per_kind "ccdsm_net_send_bytes_total";
          }
  in
  let cap_blocks = 128 in
  let tags = A1.create Bigarray.char Bigarray.c_layout (cfg.num_nodes * cap_blocks) in
  A1.fill tags tag_invalid_char;
  let stats = A1.create Bigarray.float64 Bigarray.c_layout (cfg.num_nodes lsl stat_shift) in
  A1.fill stats 0.0;
  let mem = A1.create Bigarray.float64 Bigarray.c_layout 1024 in
  A1.fill mem 0.0;
  let t =
    {
      cfg;
      nnodes = cfg.num_nodes;
      words_per_block;
      block_shift = log2 words_per_block;
      tags;
      cap_blocks;
      cap_shift = log2 cap_blocks;
      stats;
      mem;
      homes = Array.make 128 (-1);
      nblocks = 0;
      word_limit = 0;
      handlers = None;
      faults =
        (* Like the trace sink, the CCDSM_FAULTS override is picked up at
           machine creation so experiment drivers that build machines
           internally inherit it.  The CLI validates the variable at startup;
           a malformed value reaching this point still fails loudly. *)
        (match Faults.env_plan () with
        | Ok None -> None
        | Ok (Some p) -> if Faults.is_zero p then None else Some (Faults.create p)
        | Error msg -> invalid_arg ("Machine.create: " ^ msg));
      meters;
      observers = [];
      observed = false;
      events = [||];
      touches = [||];
      accesses = [||];
      charges = [||];
      allocs = [||];
      heap_allocs = [||];
      phases = [||];
      resets = [||];
      audit = None;
    }
  in
  (match Trace.global () with
  | None -> ()
  | Some f ->
      subscribe t f;
      f (Trace.Init { nodes = cfg.num_nodes; block_bytes = cfg.block_bytes }));
  t

let config t = t.cfg
let num_nodes t = t.cfg.num_nodes
let block_bytes t = t.cfg.block_bytes
let words_per_block t = t.words_per_block
let net t = t.cfg.net
let install t h = t.handlers <- Some h

let num_blocks t = t.nblocks
let block_of t a = a asr t.block_shift

let home t b =
  if b < 0 || b >= t.nblocks then invalid_arg "Machine.home: bad block";
  t.homes.(b)

(* -- growth ------------------------------------------------------------ *)

let ensure_blocks t n =
  if n > t.cap_blocks then begin
    (* Capacity stays a power of two so row bases remain shifts.  Each node's
       live prefix is re-laid at its new row base; fresh space is Invalid. *)
    let shift = ref t.cap_shift in
    while 1 lsl !shift < n do
      incr shift
    done;
    let cap = 1 lsl !shift in
    let tags = A1.create Bigarray.char Bigarray.c_layout (t.nnodes lsl !shift) in
    (* Per node: re-lay the live tag-row prefix at the new row base and
       Invalid-fill only the fresh tail, rather than filling the whole table
       and then blitting over it — growth is sized by the table, so the
       double touch was the bulk of its cost. *)
    if t.nblocks > 0 then
      for node = 0 to t.nnodes - 1 do
        A1.blit
          (A1.sub t.tags (node lsl t.cap_shift) t.nblocks)
          (A1.sub tags (node lsl !shift) t.nblocks);
        A1.fill (A1.sub tags ((node lsl !shift) + t.nblocks) (cap - t.nblocks)) tag_invalid_char
      done
    else A1.fill tags tag_invalid_char;
    t.tags <- tags;
    t.cap_shift <- !shift;
    t.cap_blocks <- 1 lsl !shift
  end;
  if n > Array.length t.homes then begin
    let cap = max n (2 * Array.length t.homes) in
    let homes = Array.make cap (-1) in
    Array.blit t.homes 0 homes 0 t.nblocks;
    t.homes <- homes
  end;
  if n * t.words_per_block > A1.dim t.mem then begin
    let cap = max (n * t.words_per_block) (2 * A1.dim t.mem) in
    let mem = A1.create Bigarray.float64 Bigarray.c_layout cap in
    if t.word_limit > 0 then A1.blit (A1.sub t.mem 0 t.word_limit) (A1.sub mem 0 t.word_limit);
    A1.fill (A1.sub mem t.word_limit (cap - t.word_limit)) 0.0;
    t.mem <- mem
  end

let alloc t ~words ~home =
  if words <= 0 then invalid_arg "Machine.alloc: words must be positive";
  if home < 0 || home >= t.cfg.num_nodes then invalid_arg "Machine.alloc: bad home node";
  let blocks = (words + t.words_per_block - 1) / t.words_per_block in
  let first = t.nblocks in
  ensure_blocks t (first + blocks);
  let home_row = home lsl t.cap_shift in
  for b = first to first + blocks - 1 do
    t.homes.(b) <- home;
    A1.set t.tags (home_row lor b) tag_read_write_char
  done;
  t.nblocks <- first + blocks;
  t.word_limit <- t.nblocks * t.words_per_block;
  if t.observed then begin
    emit t (Trace.Alloc { first_block = first; blocks; home });
    Array.iter (fun f -> f ~words ~home) t.allocs
  end;
  first * t.words_per_block

(* -- tags --------------------------------------------------------------- *)

let check_node t node = if node < 0 || node >= t.cfg.num_nodes then invalid_arg "Machine: bad node"

let check_block t b = if b < 0 || b >= t.nblocks then invalid_arg "Machine: bad block"

let tag t ~node b =
  check_node t node;
  check_block t b;
  Tag.of_char (A1.get t.tags ((node lsl t.cap_shift) lor b))

let set_tag t ~node b tg =
  check_node t node;
  check_block t b;
  let i = (node lsl t.cap_shift) lor b in
  if t.observed || Option.is_some t.meters then begin
    let before_c = A1.get t.tags i in
    let after_c = Tag.to_char tg in
    (* Write first, then publish: observers that inspect machine state
       (the sanitizer's tag scans) must see the post-transition world. *)
    A1.set t.tags i after_c;
    if before_c <> after_c then begin
      (match t.meters with
      | Some m -> Obs.Counter.inc m.tag_trans.((Char.code before_c * 3) + Char.code after_c)
      | None -> ());
      if t.observed then
        emit t (Trace.Tag_change { node; block = b; before = Tag.of_char before_c; after = tg })
    end
  end
  else A1.set t.tags i (Tag.to_char tg)

(* -- time --------------------------------------------------------------- *)

let charge t ~node bucket us =
  check_node t node;
  if t.observed then charged t ~node bucket ~us;
  let i = (node lsl stat_shift) lor bucket_index bucket in
  A1.unsafe_set t.stats i (A1.unsafe_get t.stats i +. us)

let bucket_time t ~node bucket =
  check_node t node;
  A1.unsafe_get t.stats ((node lsl stat_shift) lor bucket_index bucket)

let time t ~node =
  check_node t node;
  let base = node lsl stat_shift in
  A1.unsafe_get t.stats base
  +. A1.unsafe_get t.stats (base lor 1)
  +. A1.unsafe_get t.stats (base lor 2)
  +. A1.unsafe_get t.stats (base lor 3)

let max_time t =
  let m = ref 0.0 in
  for n = 0 to t.cfg.num_nodes - 1 do
    m := Float.max !m (time t ~node:n)
  done;
  !m

let barrier t ~bucket =
  if t.observed then emit t (Trace.Barrier { bucket = bucket_name bucket });
  let target = max_time t +. Network.barrier_cost t.cfg.net ~nodes:t.cfg.num_nodes in
  for n = 0 to t.cfg.num_nodes - 1 do
    charge t ~node:n bucket (target -. time t ~node:n)
  done

(* -- counters ----------------------------------------------------------- *)

(* Counters are integer-valued float64s: every bump adds an integer, so the
   stored value is exact (well below 2^53) and the int view below is lossless. *)
let[@inline] ctr_add t node field k =
  let i = (node lsl stat_shift) lor field in
  A1.unsafe_set t.stats i (A1.unsafe_get t.stats i +. k)

let counters t ~node =
  check_node t node;
  let g f = int_of_float (A1.unsafe_get t.stats ((node lsl stat_shift) lor f)) in
  {
    local_reads = g f_local_reads;
    local_writes = g f_local_writes;
    read_faults = g f_read_faults;
    write_faults = g f_write_faults;
    msgs = g f_msgs;
    bytes = g f_bytes;
    invalidations = g f_invalidations;
    downgrades = g f_downgrades;
    retries = g f_retries;
    timeouts = g f_timeouts;
    presend_fallbacks = g f_presend_fallbacks;
  }

let note_invalidation t ~node =
  check_node t node;
  ctr_add t node f_invalidations 1.0

let note_downgrade t ~node =
  check_node t node;
  ctr_add t node f_downgrades 1.0

let note_retry t ~node =
  check_node t node;
  ctr_add t node f_retries 1.0

let note_timeout t ~node =
  check_node t node;
  ctr_add t node f_timeouts 1.0

let note_presend_fallback t ~node =
  check_node t node;
  ctr_add t node f_presend_fallbacks 1.0

let count_msg t ~node ?(dst = -1) ?(kind = Trace.Data) ~bytes () =
  check_node t node;
  ctr_add t node f_msgs 1.0;
  ctr_add t node f_bytes (float_of_int bytes);
  (match t.meters with
  | Some m ->
      let i = Trace.msg_kind_index kind in
      Obs.Counter.inc m.send_msgs.(i);
      Obs.Counter.add m.send_bytes.(i) bytes
  | None -> ());
  if t.observed then emit t (Trace.Msg { src = node; dst; bytes; kind })

(* -- fault injection ----------------------------------------------------- *)

let faults t = t.faults
let set_faults t f = t.faults <- f

let send_msg t ~node ?(dst = -1) ?(kind = Trace.Data) ~bytes () =
  count_msg t ~node ~dst ~kind ~bytes ();
  match t.faults with
  | None -> Faults.Deliver
  | Some f -> (
      match Faults.verdict f with
      | Faults.Deliver -> Faults.Deliver
      | Faults.Drop ->
          Faults.note_drop f;
          if t.observed then emit t (Trace.Msg_drop { src = node; dst; kind });
          Faults.Drop
      | Faults.Duplicate ->
          (* The duplicate is real traffic; receivers are idempotent. *)
          Faults.note_dup f;
          count_msg t ~node ~dst ~kind ~bytes ();
          Faults.Duplicate
      | Faults.Delay ->
          Faults.note_delay f;
          Faults.Delay)

let total_counters t =
  let acc = fresh_counters () in
  for node = 0 to t.nnodes - 1 do
    let g f = int_of_float (A1.unsafe_get t.stats ((node lsl stat_shift) lor f)) in
    acc.local_reads <- acc.local_reads + g f_local_reads;
    acc.local_writes <- acc.local_writes + g f_local_writes;
    acc.read_faults <- acc.read_faults + g f_read_faults;
    acc.write_faults <- acc.write_faults + g f_write_faults;
    acc.msgs <- acc.msgs + g f_msgs;
    acc.bytes <- acc.bytes + g f_bytes;
    acc.invalidations <- acc.invalidations + g f_invalidations;
    acc.downgrades <- acc.downgrades + g f_downgrades;
    acc.retries <- acc.retries + g f_retries;
    acc.timeouts <- acc.timeouts + g f_timeouts;
    acc.presend_fallbacks <- acc.presend_fallbacks + g f_presend_fallbacks
  done;
  acc

let reset_stats t =
  A1.fill t.stats 0.0;
  Array.iter (fun f -> f ()) t.resets

(* -- data path ---------------------------------------------------------- *)

let peek t a =
  if a < 0 || a >= t.word_limit then invalid_arg "Machine.peek: bad addr";
  A1.get t.mem a

let poke t a v =
  if a < 0 || a >= t.word_limit then invalid_arg "Machine.poke: bad addr";
  A1.set t.mem a v

let handlers_exn t =
  match t.handlers with
  | Some h -> h
  | None -> failwith "Machine: access fault with no protocol installed"

(* Cold path of the fused bounds check: re-run the precise tests, so a bad
   node and a bad address raise their own messages. *)
let bad_access t ~node a =
  check_node t node;
  check_block t (a asr t.block_shift);
  assert false

let read_fault t ~node b =
  ctr_add t node f_read_faults 1.0;
  if t.observed then emit t (Trace.Fault { node; block = b; write = false });
  (handlers_exn t).on_read_fault ~node b;
  assert (Tag.permits_read (Tag.of_char (A1.get t.tags ((node lsl t.cap_shift) lor b))))

let write_fault t ~node b =
  ctr_add t node f_write_faults 1.0;
  if t.observed then emit t (Trace.Fault { node; block = b; write = true });
  (handlers_exn t).on_write_fault ~node b;
  assert (Tag.permits_write (Tag.of_char (A1.get t.tags ((node lsl t.cap_shift) lor b))))

(* One access's bookkeeping: the count bump ([field] is [f_local_reads] or
   [f_local_writes]) and the Compute charge (slot 0), in one row of one
   table. *)
let[@inline] count_access t ~node field =
  ctr_add t node field 1.0;
  let i = node lsl stat_shift in
  A1.unsafe_set t.stats i (A1.unsafe_get t.stats i +. local_access_us)

(* An in-range, tag-permitted access that no check of the audit can fail
   (a word past the stamp table takes the observed path, which grows it). *)
let[@inline] audited t au ~node a ~write =
  (node lor a) >= 0
  && node < t.nnodes && a < t.word_limit && (not au.pending)
  && (let tg = A1.unsafe_get t.tags ((node lsl t.cap_shift) lor (a lsr t.block_shift)) in
      if write then tg = tag_read_write_char else tg <> tag_invalid_char)
  && ((not (write && au.races))
     || (a < Array.length au.stamps
        && let w = Array.unsafe_get au.stamps a in w < au.epoch || w = au.epoch + node))

(* The observed path: a bad node or address (raises), an observed access,
   or one whose tag faults.  The touch hooks run before the fault so a
   collector that snapshots counters when an access opens a profile
   segment attributes the triggering fault to that segment, not the gap
   before it.  A hook that no observer implements costs a length test. *)
let access_observed t ~node a ~write =
  if (node lor a) < 0 || node >= t.nnodes || a >= t.word_limit then bad_access t ~node a;
  if t.observed then begin
    let hs = t.touches in
    for i = 0 to Array.length hs - 1 do
      (Array.unsafe_get hs i) ~node ~addr:a ~write
    done
  end;
  let b = a lsr t.block_shift in
  let tg = A1.unsafe_get t.tags ((node lsl t.cap_shift) lor b) in
  let faulted = if write then tg <> tag_read_write_char else tg = tag_invalid_char in
  if faulted then if write then write_fault t ~node b else read_fault t ~node b;
  count_access t ~node (if write then f_local_writes else f_local_reads);
  if t.observed then begin
    let hs = t.accesses in
    for i = 0 to Array.length hs - 1 do
      (Array.unsafe_get hs i) ~node ~addr:a ~write ~faulted
    done
  end

(* Every access but an unobserved hit, out of line.  An audited hit does
   what its observer's [on_access] would, without the call. *)
let[@inline never] access_cold t ~node a ~write =
  match t.audit with
  | Some au when audited t au ~node a ~write ->
      count_access t ~node (if write then f_local_writes else f_local_reads);
      record au ~node ~addr:a ~write ~faulted:false;
      if write && au.races then Array.unsafe_set au.stamps a (au.epoch + node)
  | _ -> access_observed t ~node a ~write

(* An in-range, unobserved access whose tag permits it. *)
let[@inline] hit t ~node a ~write =
  (node lor a) >= 0
  && node < t.nnodes && a < t.word_limit && (not t.observed)
  &&
  let tg = A1.unsafe_get t.tags ((node lsl t.cap_shift) lor (a lsr t.block_shift)) in
  if write then tg = tag_read_write_char else tg <> tag_invalid_char

(* Inlined at every call site (the release profile lets it cross modules):
   the hit's test, count and charge, and one out-of-line call for anything
   else.  So the float a read returns reaches the caller's arithmetic
   unboxed, a write's argument is stored without a box, and each call site
   adds one cold call. *)
let[@inline] read t ~node a =
  if hit t ~node a ~write:false then count_access t ~node f_local_reads
  else access_cold t ~node a ~write:false;
  A1.unsafe_get t.mem a

let[@inline] write t ~node a v =
  if hit t ~node a ~write:true then count_access t ~node f_local_writes
  else access_cold t ~node a ~write:true;
  A1.unsafe_set t.mem a v
