module Machine = Ccdsm_tempest.Machine
module Trace = Ccdsm_tempest.Trace
module Json = Ccdsm_util.Json
module Seen = Ccdsm_util.Seen

type event =
  | Run of { node : int; write : bool; addr : int; stride : int; count : int }
  | Alloc of { words : int; home : int }
  | Heap_alloc of { node : int; words : int; spilled : bool }
  | Flush of { fphase : int }

type segment = {
  seq : int;
  phase : int;
  name : string;
  record : bool;
  presend : bool;
  a_faults : int;
  a_msgs : int;
  a_bytes : int;
  a_presends : int;
  a_bucket_us : float array;
  events : event array;
}

type t = {
  app : string;
  protocol : string;
  nodes : int;
  block_bytes : int;
  arena_blocks : int;
  out_msgs : int;
  out_bytes : int;
  out_bucket_us : float array;
  segments : segment array;
}

(* Machine time buckets, in [Machine.all_buckets] order. *)
let machine_buckets = Machine.all_buckets
let nmb = List.length machine_buckets

(* -- collection --------------------------------------------------------- *)

(* Internal event stream: packed 5-int cells [kind; a; b; c; d] so the hot
   path only bumps an int array.  kind 0 = read run (node, addr, stride,
   count), 1 = write run, 2 = raw alloc (words, home), 3 = heap alloc
   (node, words, spilled). *)
type collector = {
  machine : Machine.t;
  sample_presends : (unit -> int) option;
  capp : string;
  cprotocol : string;
  carena_blocks : int;
  nnodes : int;
  mutable segs : segment list;  (* reversed *)
  mutable seq : int;
  mutable stack : (int * string * bool) list;  (* (id, name, scheduled) *)
  (* open segment *)
  mutable open_ : bool;
  mutable cur_phase : int;
  mutable cur_name : string;
  mutable cur_record : bool;
  mutable cur_presend : bool;
  mutable ev : int array;
  mutable ev_len : int;
  seen : Seen.t;  (* (addr, node, op) first-touch filter *)
  (* open access run *)
  mutable run_open : bool;
  mutable r_node : int;
  mutable r_write : bool;
  mutable r_start : int;
  mutable r_stride : int;
  mutable r_count : int;
  mutable r_last : int;
  (* counter snapshots *)
  mutable base_faults : int;
  mutable base_msgs : int;
  mutable base_bytes : int;
  mutable base_presends : int;
  base_bucket : float array;  (* nmb bucket-time sums at segment open *)
  mutable closed_msgs : int;  (* snapshot at last segment close *)
  mutable closed_bytes : int;
  closed_bucket : float array;
  mutable out_msgs : int;
  mutable out_bytes : int;
  out_bucket : float array;
  mutable detach : unit -> unit;
}

let counters c =
  let k = Machine.total_counters c.machine in
  let presends = match c.sample_presends with Some f -> f () | None -> 0 in
  (k.Machine.read_faults + k.Machine.write_faults, k.Machine.msgs, k.Machine.bytes, presends)

(* Whole-machine time-bucket sums (over nodes), the same left-to-right node
   order as the stats table, so segment deltas subtract exactly. *)
let bucket_sums c =
  let a = Array.make nmb 0.0 in
  List.iteri
    (fun i b ->
      let total = ref 0.0 in
      for node = 0 to c.nnodes - 1 do
        total := !total +. Machine.bucket_time c.machine ~node b
      done;
      a.(i) <- !total)
    machine_buckets;
  a

let ensure_ev c n =
  if c.ev_len + n > Array.length c.ev then begin
    let cap = ref (Array.length c.ev * 2) in
    while c.ev_len + n > !cap do
      cap := !cap * 2
    done;
    let ev = Array.make !cap 0 in
    Array.blit c.ev 0 ev 0 c.ev_len;
    c.ev <- ev
  end

let push_cell c k a b d e =
  ensure_ev c 5;
  let i = c.ev_len in
  c.ev.(i) <- k;
  c.ev.(i + 1) <- a;
  c.ev.(i + 2) <- b;
  c.ev.(i + 3) <- d;
  c.ev.(i + 4) <- e;
  c.ev_len <- i + 5

(* The event in the cell at [j]; the "ev" array of the JSON form uses the
   same layout.  [None] on an unknown kind. *)
let cell_event a j =
  match a.(j) with
  | 0 | 1 ->
      Some
        (Run
           { node = a.(j + 1); write = a.(j) = 1; addr = a.(j + 2); stride = a.(j + 3); count = a.(j + 4) })
  | 2 -> Some (Alloc { words = a.(j + 1); home = a.(j + 2) })
  | 3 -> Some (Heap_alloc { node = a.(j + 1); words = a.(j + 2); spilled = a.(j + 3) <> 0 })
  | 4 -> Some (Flush { fphase = a.(j + 1) })
  | _ -> None

let flush_run c =
  if c.run_open then begin
    push_cell c (if c.r_write then 1 else 0) c.r_node c.r_start c.r_stride c.r_count;
    c.run_open <- false
  end

(* Innermost scheduled phase on the stack decides whether faults in this
   segment are recorded into a presend schedule, and into which one. *)
let recording_phase stack =
  let rec go = function
    | [] -> (-1, false)
    | (id, _, true) :: _ -> (id, true)
    | _ :: rest -> go rest
  in
  go stack

let open_segment c ~presend =
  let phase, record = recording_phase c.stack in
  let name = match c.stack with (_, n, _) :: _ -> n | [] -> "gap" in
  c.cur_phase <- phase;
  c.cur_name <- name;
  c.cur_record <- record;
  c.cur_presend <- presend;
  c.ev_len <- 0;
  Seen.clear c.seen;
  c.run_open <- false;
  let faults, msgs, bytes, presends = counters c in
  (* Counter movement since the last close happened between segments
     (reductions, barriers): block-size-invariant background traffic. *)
  c.out_msgs <- c.out_msgs + (msgs - c.closed_msgs);
  c.out_bytes <- c.out_bytes + (bytes - c.closed_bytes);
  let bt = bucket_sums c in
  for i = 0 to nmb - 1 do
    c.out_bucket.(i) <- c.out_bucket.(i) +. (bt.(i) -. c.closed_bucket.(i))
  done;
  Array.blit bt 0 c.base_bucket 0 nmb;
  c.base_faults <- faults;
  c.base_msgs <- msgs;
  c.base_bytes <- bytes;
  c.base_presends <- presends;
  c.open_ <- true

let close_segment c =
  flush_run c;
  let faults, msgs, bytes, presends = counters c in
  let bt = bucket_sums c in
  let events = Array.init (c.ev_len / 5) (fun i -> Option.get (cell_event c.ev (i * 5))) in
  let seg =
    {
      seq = c.seq;
      phase = c.cur_phase;
      name = c.cur_name;
      record = c.cur_record;
      presend = c.cur_presend;
      a_faults = faults - c.base_faults;
      a_msgs = msgs - c.base_msgs;
      a_bytes = bytes - c.base_bytes;
      a_presends = presends - c.base_presends;
      a_bucket_us = Array.init nmb (fun i -> bt.(i) -. c.base_bucket.(i));
      events;
    }
  in
  c.seq <- c.seq + 1;
  c.segs <- seg :: c.segs;
  c.closed_msgs <- msgs;
  c.closed_bytes <- bytes;
  Array.blit bt 0 c.closed_bucket 0 nmb;
  c.open_ <- false

let prof_access c ~node ~addr ~write =
  if not c.open_ then open_segment c ~presend:false;
  (* First-touch filter: only the first (node, word, op) access of a segment
     can change coherence state, so only it enters the event stream. *)
  let op = if write then 1 else 0 in
  let key = (addr lsl 11) lor (node lsl 1) lor op in
  if Seen.add c.seen key then begin
    if c.run_open && c.r_node = node && c.r_write = write then begin
      if c.r_count = 1 then begin
        c.r_stride <- addr - c.r_last;
        c.r_count <- 2;
        c.r_last <- addr
      end
      else if addr = c.r_last + c.r_stride then begin
        c.r_count <- c.r_count + 1;
        c.r_last <- addr
      end
      else begin
        flush_run c;
        c.run_open <- true;
        c.r_node <- node;
        c.r_write <- write;
        c.r_start <- addr;
        c.r_stride <- 0;
        c.r_count <- 1;
        c.r_last <- addr
      end
    end
    else begin
      flush_run c;
      c.run_open <- true;
      c.r_node <- node;
      c.r_write <- write;
      c.r_start <- addr;
      c.r_stride <- 0;
      c.r_count <- 1;
      c.r_last <- addr
    end
  end

let prof_alloc c ~words ~home =
  if not c.open_ then open_segment c ~presend:false;
  flush_run c;
  push_cell c 2 words home 0 0

let prof_heap_alloc c ~node ~words ~spilled =
  if not c.open_ then open_segment c ~presend:false;
  flush_run c;
  (* A spilled heap allocation was immediately preceded by the raw
     Machine.alloc it triggered (the large object itself, or a fresh bump
     arena); the logical heap event subsumes it, so rewrite that cell in
     place — the model re-derives the raw allocation by mirroring the
     heap's bump logic in each block geometry. *)
  if spilled && c.ev_len >= 5 && c.ev.(c.ev_len - 5) = 2 then c.ev_len <- c.ev_len - 5;
  push_cell c 3 node words (if spilled then 1 else 0) 0

let prof_flush c ~phase =
  if not c.open_ then open_segment c ~presend:false;
  flush_run c;
  push_cell c 4 phase 0 0 0

let prof_phase c ~enter ~id ~name ~scheduled =
  if enter then begin
    if c.open_ then close_segment c;
    c.stack <- (id, name, scheduled) :: c.stack;
    open_segment c ~presend:scheduled
  end
  else begin
    if c.open_ then close_segment c;
    (match c.stack with [] -> () | _ :: rest -> c.stack <- rest);
    if c.stack <> [] then open_segment c ~presend:false
  end

let attach ?sample_presends ~app ~protocol ~arena_blocks machine =
  let nnodes = Machine.num_nodes machine in
  let c =
    {
      machine;
      sample_presends;
      capp = app;
      cprotocol = protocol;
      carena_blocks = arena_blocks;
      nnodes;
      segs = [];
      seq = 0;
      stack = [];
      open_ = false;
      cur_phase = -1;
      cur_name = "gap";
      cur_record = false;
      cur_presend = false;
      ev = Array.make 1024 0;
      ev_len = 0;
      seen = Seen.create ();
      run_open = false;
      r_node = 0;
      r_write = false;
      r_start = 0;
      r_stride = 0;
      r_count = 0;
      r_last = 0;
      base_faults = 0;
      base_msgs = 0;
      base_bytes = 0;
      base_presends = 0;
      base_bucket = Array.make nmb 0.0;
      closed_msgs = 0;
      closed_bytes = 0;
      closed_bucket = Array.make nmb 0.0;
      out_msgs = 0;
      out_bytes = 0;
      out_bucket = Array.make nmb 0.0;
      detach = ignore;
    }
  in
  let _, msgs, bytes, _ = counters c in
  c.closed_msgs <- msgs;
  c.closed_bytes <- bytes;
  Array.blit (bucket_sums c) 0 c.closed_bucket 0 nmb;
  (* Schedule flushes arrive as the [Sched_flush] event every protocol's
     [flush_schedule] publishes. *)
  c.detach <-
    Machine.observe machine
      {
        Machine.no_observer with
        on_touch = Some (fun ~node ~addr ~write -> prof_access c ~node ~addr ~write);
        on_alloc = Some (fun ~words ~home -> prof_alloc c ~words ~home);
        on_heap_alloc =
          Some (fun ~node ~words ~spilled -> prof_heap_alloc c ~node ~words ~spilled);
        on_phase =
          Some (fun ~enter ~id ~name ~scheduled -> prof_phase c ~enter ~id ~name ~scheduled);
        on_event = Some (function Trace.Sched_flush { phase } -> prof_flush c ~phase | _ -> ());
      };
  c

let finish c =
  c.detach ();
  if c.open_ then close_segment c;
  let _, msgs, bytes, _ = counters c in
  c.out_msgs <- c.out_msgs + (msgs - c.closed_msgs);
  c.out_bytes <- c.out_bytes + (bytes - c.closed_bytes);
  let bt = bucket_sums c in
  for i = 0 to nmb - 1 do
    c.out_bucket.(i) <- c.out_bucket.(i) +. (bt.(i) -. c.closed_bucket.(i))
  done;
  {
    app = c.capp;
    protocol = c.cprotocol;
    nodes = c.nnodes;
    block_bytes = Machine.block_bytes c.machine;
    arena_blocks = c.carena_blocks;
    out_msgs = c.out_msgs;
    out_bytes = c.out_bytes;
    out_bucket_us = Array.copy c.out_bucket;
    segments = Array.of_list (List.rev c.segs);
  }

let collect ?sample_presends ~app ~protocol ~arena_blocks machine f =
  let c = attach ?sample_presends ~app ~protocol ~arena_blocks machine in
  match f () with
  | v -> (finish c, v)
  | exception e ->
      ignore (finish c);
      raise e

(* -- canonical JSON ------------------------------------------------------ *)

(* Round-trip-exact float literal: the shortest of %.12g / %.17g that parses
   back to the same value, so saved profiles reload bit-for-bit. *)
let float_str v =
  let s = Printf.sprintf "%.12g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let bucket_us_json b a =
  Buffer.add_char b '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (float_str v))
    a;
  Buffer.add_char b ']'

let to_json p =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"version\":3,\"app\":";
  Buffer.add_string b (Json.quote p.app);
  Buffer.add_string b ",\"protocol\":";
  Buffer.add_string b (Json.quote p.protocol);
  Printf.bprintf b ",\"nodes\":%d,\"block_bytes\":%d,\"arena_blocks\":%d" p.nodes p.block_bytes
    p.arena_blocks;
  Printf.bprintf b ",\"outside\":{\"msgs\":%d,\"bytes\":%d,\"bucket_us\":" p.out_msgs p.out_bytes;
  bucket_us_json b p.out_bucket_us;
  Buffer.add_char b '}';
  Buffer.add_string b ",\"segments\":[";
  Array.iteri
    (fun i (s : segment) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n";
      Printf.bprintf b "{\"seq\":%d,\"phase\":%d,\"name\":" s.seq s.phase;
      Buffer.add_string b (Json.quote s.name);
      Printf.bprintf b ",\"record\":%b,\"presend\":%b" s.record s.presend;
      Printf.bprintf b ",\"faults\":%d,\"msgs\":%d,\"bytes\":%d,\"presends\":%d" s.a_faults s.a_msgs
        s.a_bytes s.a_presends;
      Buffer.add_string b ",\"bucket_us\":";
      bucket_us_json b s.a_bucket_us;
      Buffer.add_string b ",\"ev\":[";
      Array.iteri
        (fun j e ->
          if j > 0 then Buffer.add_char b ',';
          match e with
          | Run { node; write; addr; stride; count } ->
              Printf.bprintf b "%d,%d,%d,%d,%d" (if write then 1 else 0) node addr stride count
          | Alloc { words; home } -> Printf.bprintf b "2,%d,%d,0,0" words home
          | Heap_alloc { node; words; spilled } ->
              Printf.bprintf b "3,%d,%d,%d,0" node words (if spilled then 1 else 0)
          | Flush { fphase } -> Printf.bprintf b "4,%d,0,0,0" fphase)
        s.events;
      Buffer.add_string b "]}")
    p.segments;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* -- decoding ---------------------------------------------------------------- *)

open Json.Syntax

let bucket_us j =
  let* l = Json.(field "bucket_us" (list float)) j in
  if List.length l <> nmb then Error (Printf.sprintf "field \"bucket_us\": expected %d entries" nmb)
  else Ok (Array.of_list l)

let decode_events cells =
  let a = Array.of_list cells in
  if Array.length a mod 5 <> 0 then Error "length not a multiple of 5"
  else
    let evs = Array.init (Array.length a / 5) (fun i -> cell_event a (i * 5)) in
    match Array.find_index Option.is_none evs with
    | Some i -> Error (Printf.sprintf "unknown event kind %d" a.(i * 5))
    | None -> Ok (Array.map Option.get evs)

let decode_segment j =
  let int key = Json.(field key int) j and bool key = Json.(field key bool) j in
  let* seq = int "seq" and* phase = int "phase" and* name = Json.(field "name" string) j
  and* record = bool "record" and* presend = bool "presend" and* a_faults = int "faults"
  and* a_msgs = int "msgs" and* a_bytes = int "bytes" and* a_presends = int "presends"
  and* a_bucket_us = bucket_us j
  and* events = Json.(field "ev" (fun v -> Result.bind (list int v) decode_events)) j in
  Ok
    { seq; phase; name; record; presend; a_faults; a_msgs; a_bytes; a_presends; a_bucket_us; events }

let decode j =
  let int key = Json.(field key int) j in
  let* version = int "version" in
  if version <> 3 then Error (Printf.sprintf "unsupported profile version %d" version)
  else
    let* app = Json.(field "app" string) j and* protocol = Json.(field "protocol" string) j
    and* nodes = int "nodes" and* block_bytes = int "block_bytes"
    and* arena_blocks = int "arena_blocks"
    and* out_msgs, out_bytes, out_bucket_us =
      Json.field "outside"
        (fun o ->
          let* m = Json.(field "msgs" int) o and* b = Json.(field "bytes" int) o
          and* u = bucket_us o in
          Ok (m, b, u))
        j
    and* segments = Json.(field "segments" (list decode_segment)) j in
    Ok
      {
        app;
        protocol;
        nodes;
        block_bytes;
        arena_blocks;
        out_msgs;
        out_bytes;
        out_bucket_us;
        segments = Array.of_list segments;
      }

let of_json s = Result.map_error (fun e -> "invalid profile: " ^ e) (Result.bind (Json.parse s) decode)

let save path p =
  let oc = open_out path in
  output_string oc (to_json p);
  close_out oc

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      if String.trim s = "" then Error (path ^ ": empty profile file") else of_json s
