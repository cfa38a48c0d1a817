module Machine = Ccdsm_tempest.Machine

type arena = { mutable cur : Machine.addr; mutable limit : Machine.addr; mutable used : int }

type t = { machine : Machine.t; arena_blocks : int; arenas : arena array }

let create ?(arena_blocks = 64) machine =
  {
    machine;
    arena_blocks;
    arenas = Array.init (Machine.num_nodes machine) (fun _ -> { cur = 0; limit = 0; used = 0 });
  }

let alloc t ~node ~words =
  if words <= 0 then invalid_arg "Shared_heap.alloc: words must be positive";
  let a = t.arenas.(node) in
  let wpb = Machine.words_per_block t.machine in
  if words >= t.arena_blocks * wpb then begin
    (* Large object: dedicated allocation, do not disturb the bump arena. *)
    let addr = Machine.alloc t.machine ~words ~home:node in
    a.used <- a.used + words;
    Machine.notify_heap_alloc t.machine ~node ~words ~spilled:true;
    addr
  end
  else begin
    let spilled = a.cur + words > a.limit in
    if spilled then begin
      let arena_words = t.arena_blocks * wpb in
      a.cur <- Machine.alloc t.machine ~words:arena_words ~home:node;
      a.limit <- a.cur + arena_words
    end;
    let addr = a.cur in
    a.cur <- a.cur + words;
    a.used <- a.used + words;
    Machine.notify_heap_alloc t.machine ~node ~words ~spilled;
    addr
  end

let allocated_words t ~node = t.arenas.(node).used
let arena_blocks t = t.arena_blocks
