(* In-memory span recorder for the traced run.  Spans are recorded from the
   benchmark's own code around calls into each layer's public entry points
   (the program itself carries no hooks), kept in memory, and written once
   when the run ends.  Recording is off in untraced runs. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;  (** serve request id, 0 when the span belongs to no request *)
  name : string;
  start : float;  (** seconds, [Unix.gettimeofday] *)
  stop : float;
  attrs : (string * string) list;
}

let enabled = ref false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded : span list ref = ref []

let add s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

(* [f] receives the span's id so children can name their parent; spans are
   recorded from any domain. *)
let with_span ?(parent = 0) ?(req = 0) ?(attrs = []) name f =
  if not !enabled then f 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let start = Unix.gettimeofday () in
    let finish () = add { id; parent; req; name; start; stop = Unix.gettimeofday (); attrs } in
    Fun.protect ~finally:finish (fun () -> f id)
  end

(* A span whose interval was measured elsewhere (a serve request timed by the
   client's event loop). *)
let record ?(parent = 0) ?(req = 0) ?(attrs = []) name ~start ~stop =
  if !enabled then
    add { id = Atomic.fetch_and_add next_id 1; parent; req; name; start; stop; attrs }

let all () =
  Mutex.lock lock;
  let l = !recorded in
  Mutex.unlock lock;
  List.sort (fun a b -> compare a.id b.id) l

let duration s = s.stop -. s.start

(* Self time: the span's duration minus the part of it its children cover
   (children of one parent may overlap when they ran on several domains, so
   the covered part is the union of their intervals). *)
let self_time spans s =
  let kids =
    List.filter (fun c -> c.parent = s.id) spans
    |> List.map (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
    |> List.filter (fun (a, b) -> b > a)
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, s.start) kids
  in
  duration s -. covered

let json_string = Ccdsm_serve.Job.escape_to_json

let to_jsonl spans =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Printf.bprintf b "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%s,\"start_us\":%.1f,\"end_us\":%.1f,\"self_us\":%.1f"
        s.id s.parent s.req (json_string s.name)
        ((s.start -. t0) *. 1e6)
        ((s.stop -. t0) *. 1e6)
        (self_time spans s *. 1e6);
      List.iter (fun (k, v) -> Printf.bprintf b ",%s:%s" (json_string k) (json_string v)) s.attrs;
      Buffer.add_string b "}\n")
    spans;
  Buffer.contents b

let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_jsonl (all ())))
