module Json = Ccdsm_util.Json

type msg_kind = Req | Data | Inval | Ack | Grant | Recall | Update | Reduce

let msg_kind_name = function
  | Req -> "req"
  | Data -> "data"
  | Inval -> "inval"
  | Ack -> "ack"
  | Grant -> "grant"
  | Recall -> "recall"
  | Update -> "update"
  | Reduce -> "reduce"

type event =
  | Init of { nodes : int; block_bytes : int }
  | Alloc of { first_block : int; blocks : int; home : int }
  | Fault of { node : int; block : int; write : bool }
  | Access of { node : int; addr : int; write : bool; faulted : bool }
  | Msg of { src : int; dst : int; bytes : int; kind : msg_kind }
  | Tag_change of { node : int; block : int; before : Tag.t; after : Tag.t }
  | Barrier of { bucket : string }
  | Phase_begin of { phase : int }
  | Phase_end of { phase : int }
  | Sched_record of { phase : int; block : int; node : int; write : bool }
  | Sched_conflict of { phase : int; block : int }
  | Sched_flush of { phase : int }
  | Presend of { phase : int; block : int; dst : int; write : bool }
  | Msg_drop of { src : int; dst : int; kind : msg_kind }
  | Retry of { node : int; block : int; attempt : int }
  | Presend_fallback of { phase : int; block : int; node : int; write : bool }
  | Sched_corrupt of { phase : int; block : int; node : int option }

let type_name = function
  | Init _ -> "init"
  | Alloc _ -> "alloc"
  | Fault _ -> "fault"
  | Access _ -> "access"
  | Msg _ -> "msg"
  | Tag_change _ -> "tag"
  | Barrier _ -> "barrier"
  | Phase_begin _ -> "phase_begin"
  | Phase_end _ -> "phase_end"
  | Sched_record _ -> "sched_record"
  | Sched_conflict _ -> "sched_conflict"
  | Sched_flush _ -> "sched_flush"
  | Presend _ -> "presend"
  | Msg_drop _ -> "drop"
  | Retry _ -> "retry"
  | Presend_fallback _ -> "presend_fallback"
  | Sched_corrupt _ -> "sched_corrupt"

let rw write = if write then "write" else "read"

let to_json ev =
  let ty = type_name ev in
  match ev with
  | Init { nodes; block_bytes } ->
      Printf.sprintf {|{"type":"%s","nodes":%d,"block_bytes":%d}|} ty nodes block_bytes
  | Alloc { first_block; blocks; home } ->
      Printf.sprintf {|{"type":"%s","first_block":%d,"blocks":%d,"home":%d}|} ty first_block
        blocks home
  | Fault { node; block; write } ->
      Printf.sprintf {|{"type":"%s","node":%d,"block":%d,"kind":"%s"}|} ty node block (rw write)
  | Access { node; addr; write; faulted } ->
      Printf.sprintf {|{"type":"%s","node":%d,"addr":%d,"kind":"%s","faulted":%b}|} ty node
        addr (rw write) faulted
  | Msg { src; dst; bytes; kind } ->
      Printf.sprintf {|{"type":"%s","src":%d,"dst":%d,"bytes":%d,"kind":"%s"}|} ty src dst
        bytes (msg_kind_name kind)
  | Tag_change { node; block; before; after } ->
      Printf.sprintf {|{"type":"%s","node":%d,"block":%d,"before":"%s","after":"%s"}|} ty node
        block (Tag.to_string before) (Tag.to_string after)
  | Barrier { bucket } -> Printf.sprintf {|{"type":"%s","bucket":"%s"}|} ty bucket
  | Phase_begin { phase } -> Printf.sprintf {|{"type":"%s","phase":%d}|} ty phase
  | Phase_end { phase } -> Printf.sprintf {|{"type":"%s","phase":%d}|} ty phase
  | Sched_record { phase; block; node; write } ->
      Printf.sprintf {|{"type":"%s","phase":%d,"block":%d,"node":%d,"kind":"%s"}|} ty phase
        block node (rw write)
  | Sched_conflict { phase; block } ->
      Printf.sprintf {|{"type":"%s","phase":%d,"block":%d}|} ty phase block
  | Sched_flush { phase } -> Printf.sprintf {|{"type":"%s","phase":%d}|} ty phase
  | Presend { phase; block; dst; write } ->
      Printf.sprintf {|{"type":"%s","phase":%d,"block":%d,"dst":%d,"kind":"%s"}|} ty phase
        block dst (rw write)
  | Msg_drop { src; dst; kind } ->
      Printf.sprintf {|{"type":"%s","src":%d,"dst":%d,"kind":"%s"}|} ty src dst
        (msg_kind_name kind)
  | Retry { node; block; attempt } ->
      Printf.sprintf {|{"type":"%s","node":%d,"block":%d,"attempt":%d}|} ty node block attempt
  | Presend_fallback { phase; block; node; write } ->
      Printf.sprintf {|{"type":"%s","phase":%d,"block":%d,"node":%d,"kind":"%s"}|} ty phase
        block node (rw write)
  | Sched_corrupt { phase; block; node } ->
      Printf.sprintf {|{"type":"%s","phase":%d,"block":%d,"node":%s}|} ty phase block
        (match node with None -> "null" | Some n -> string_of_int n)

let all_msg_kinds = [ Req; Data; Inval; Ack; Grant; Recall; Update; Reduce ]

let msg_kind_index = function
  | Req -> 0
  | Data -> 1
  | Inval -> 2
  | Ack -> 3
  | Grant -> 4
  | Recall -> 5
  | Update -> 6
  | Reduce -> 7

let pp ppf ev = Format.pp_print_string ppf (to_json ev)

(* -- parsing (inverse of [to_json]) ------------------------------------- *)

let msg_kind_of_string = function
  | "req" -> Some Req
  | "data" -> Some Data
  | "inval" -> Some Inval
  | "ack" -> Some Ack
  | "grant" -> Some Grant
  | "recall" -> Some Recall
  | "update" -> Some Update
  | "reduce" -> Some Reduce
  | _ -> None

let decode j =
  let open Json.Syntax in
  let int key = Json.(field key int) j in
  let named key of_string =
    let* s = Json.(field key string) j in
    match of_string s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "field %S: unknown value %S" key s)
  in
  let write () =
    named "kind" (function "read" -> Some false | "write" -> Some true | _ -> None)
  in
  let* ty = Json.(field "type" string) j in
  match ty with
  | "init" ->
      let* nodes = int "nodes" and* block_bytes = int "block_bytes" in
      Ok (Init { nodes; block_bytes })
  | "alloc" ->
      let* first_block = int "first_block" and* blocks = int "blocks" and* home = int "home" in
      Ok (Alloc { first_block; blocks; home })
  | "fault" ->
      let* node = int "node" and* block = int "block" and* write = write () in
      Ok (Fault { node; block; write })
  | "access" ->
      let* node = int "node" and* addr = int "addr" and* write = write ()
      and* faulted = Json.(field "faulted" bool) j in
      Ok (Access { node; addr; write; faulted })
  | "msg" ->
      let* src = int "src" and* dst = int "dst" and* bytes = int "bytes"
      and* kind = named "kind" msg_kind_of_string in
      Ok (Msg { src; dst; bytes; kind })
  | "tag" ->
      let* node = int "node" and* block = int "block" and* before = named "before" Tag.of_string
      and* after = named "after" Tag.of_string in
      Ok (Tag_change { node; block; before; after })
  | "barrier" ->
      let* bucket = Json.(field "bucket" string) j in
      Ok (Barrier { bucket })
  | "phase_begin" ->
      let* phase = int "phase" in
      Ok (Phase_begin { phase })
  | "phase_end" ->
      let* phase = int "phase" in
      Ok (Phase_end { phase })
  | "sched_record" ->
      let* phase = int "phase" and* block = int "block" and* node = int "node"
      and* write = write () in
      Ok (Sched_record { phase; block; node; write })
  | "sched_conflict" ->
      let* phase = int "phase" and* block = int "block" in
      Ok (Sched_conflict { phase; block })
  | "sched_flush" ->
      let* phase = int "phase" in
      Ok (Sched_flush { phase })
  | "presend" ->
      let* phase = int "phase" and* block = int "block" and* dst = int "dst"
      and* write = write () in
      Ok (Presend { phase; block; dst; write })
  | "drop" ->
      let* src = int "src" and* dst = int "dst" and* kind = named "kind" msg_kind_of_string in
      Ok (Msg_drop { src; dst; kind })
  | "retry" ->
      let* node = int "node" and* block = int "block" and* attempt = int "attempt" in
      Ok (Retry { node; block; attempt })
  | "presend_fallback" ->
      let* phase = int "phase" and* block = int "block" and* node = int "node"
      and* write = write () in
      Ok (Presend_fallback { phase; block; node; write })
  | "sched_corrupt" ->
      let* phase = int "phase" and* block = int "block"
      and* node =
        Json.field "node" (function Json.Null -> Ok None | v -> Result.map Option.some (Json.int v)) j
      in
      Ok (Sched_corrupt { phase; block; node })
  | _ -> Error (Printf.sprintf "unknown type %S" ty)

let of_json line =
  Result.map_error
    (fun what -> Printf.sprintf "bad trace line (%s): %s" what line)
    (Result.bind (Json.parse line) decode)

let global_sink : (event -> unit) option ref = ref None
let set_global s = global_sink := s
let global () = !global_sink

let jsonl_sink oc ev =
  match ev with
  | Access _ -> ()
  | _ ->
      output_string oc (to_json ev);
      output_char oc '\n'
