module Machine = Ccdsm_tempest.Machine

type t = {
  name : string;
  machine : Machine.t;
  dims : int array;
  elem_words : int;
  dist : Distribution.t;
  bases : Machine.addr array;  (* base of each node's contiguous region *)
  nodes : int;
  (* Flat per-element tables, built once at creation: the owner/rank
     divisions of Distribution leave the per-access path entirely.
     [addrs.(flat index)] is the word address of the element's field 0,
     [owners.(flat index)] its owning node; 2-D indices flatten as
     [i * cols + j]. *)
  addrs : int array;
  owners : int array;
  cols : int;  (* dims.(1), or 1 for 1-D *)
}

let mk machine ~name ~elem_words ~dims ~dist counts =
  let nodes = Machine.num_nodes machine in
  (match Distribution.validate dist ~nodes ~dims with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Aggregate %s: %s" name msg));
  let bases =
    Array.init nodes (fun node ->
        let words = max 1 (counts node * elem_words) in
        Machine.alloc machine ~words ~home:node)
  in
  let size = Array.fold_left ( * ) 1 dims in
  let addrs = Array.make size 0 and owners = Array.make size 0 in
  let cols = if Array.length dims = 2 then dims.(1) else 1 in
  (match dims with
  | [| n |] ->
      for i = 0 to n - 1 do
        let o = Distribution.owner1 dist ~nodes ~n i in
        let r = Distribution.rank1 dist ~nodes ~n i in
        owners.(i) <- o;
        addrs.(i) <- bases.(o) + (r * elem_words)
      done
  | [| rows; cols |] ->
      for i = 0 to rows - 1 do
        for j = 0 to cols - 1 do
          let o = Distribution.owner2 dist ~nodes ~rows ~cols i j in
          let r = Distribution.rank2 dist ~nodes ~rows ~cols i j in
          owners.((i * cols) + j) <- o;
          addrs.((i * cols) + j) <- bases.(o) + (r * elem_words)
        done
      done
  | _ -> invalid_arg (Printf.sprintf "Aggregate %s: rank" name));
  { name; machine; dims; elem_words; dist; bases; nodes; addrs; owners; cols }

let create_1d machine ~name ?(elem_words = 1) ~n ~dist () =
  if n <= 0 then invalid_arg "Aggregate.create_1d: empty";
  mk machine ~name ~elem_words ~dims:[| n |] ~dist (fun node ->
      Distribution.owned_count1 dist ~nodes:(Machine.num_nodes machine) ~n ~node)

let create_2d machine ~name ?(elem_words = 1) ~rows ~cols ~dist () =
  if rows <= 0 || cols <= 0 then invalid_arg "Aggregate.create_2d: empty";
  mk machine ~name ~elem_words ~dims:[| rows; cols |] ~dist (fun node ->
      Distribution.owned_count2 dist ~nodes:(Machine.num_nodes machine) ~rows ~cols ~node)

let name t = t.name
let dims t = t.dims
let size t = Array.fold_left ( * ) 1 t.dims
let elem_words t = t.elem_words
let dist t = t.dist

(* The checks inline into every accessor, each with one out-of-line call:
   the cold raisers below re-test to build the precise message. *)
let[@inline never] bad_field t field =
  invalid_arg (Printf.sprintf "Aggregate %s: field %d out of range" t.name field)

let[@inline never] bad_index1 t i =
  if Array.length t.dims <> 1 then invalid_arg (Printf.sprintf "Aggregate %s: 2-D" t.name)
  else invalid_arg (Printf.sprintf "Aggregate %s: index %d" t.name i)

let[@inline never] bad_index2 t i j =
  if Array.length t.dims <> 2 then invalid_arg (Printf.sprintf "Aggregate %s: 1-D" t.name)
  else invalid_arg (Printf.sprintf "Aggregate %s: index (%d,%d)" t.name i j)

let[@inline] check_field t field = if field < 0 || field >= t.elem_words then bad_field t field

let[@inline] check1 t i =
  if Array.length t.dims <> 1 || i < 0 || i >= Array.unsafe_get t.dims 0 then bad_index1 t i

let[@inline] check2 t i j =
  if
    Array.length t.dims <> 2
    || i < 0
    || i >= Array.unsafe_get t.dims 0
    || j < 0
    || j >= Array.unsafe_get t.dims 1
  then bad_index2 t i j

let owner1 t i =
  check1 t i;
  Array.unsafe_get t.owners i

let owner2 t i j =
  check2 t i j;
  Array.unsafe_get t.owners ((i * t.cols) + j)

let[@inline] addr1 t i ~field =
  check_field t field;
  check1 t i;
  Array.unsafe_get t.addrs i + field

let[@inline] addr2 t i j ~field =
  check_field t field;
  check2 t i j;
  Array.unsafe_get t.addrs ((i * t.cols) + j) + field

let[@inline] read1 t ~node i ~field = Machine.read t.machine ~node (addr1 t i ~field)
let[@inline] write1 t ~node i ~field v = Machine.write t.machine ~node (addr1 t i ~field) v
let[@inline] read2 t ~node i j ~field = Machine.read t.machine ~node (addr2 t i j ~field)
let[@inline] write2 t ~node i j ~field v = Machine.write t.machine ~node (addr2 t i j ~field) v

let peek1 t i ~field = Machine.peek t.machine (addr1 t i ~field)
let peek2 t i j ~field = Machine.peek t.machine (addr2 t i j ~field)
let poke1 t i ~field v = Machine.poke t.machine (addr1 t i ~field) v
let poke2 t i j ~field v = Machine.poke t.machine (addr2 t i j ~field) v
