module Ascii = Ccdsm_util.Ascii
module Json = Ccdsm_util.Json

type span = {
  id : int;
  track : int;
  cat : string;
  name : string;
  t0 : float;
  dur : float;
  parent : int;
  flow_dst : int;
  seg : int;
}

type segment = {
  seg_id : int;
  label : string;
  s_t0 : float;
  s_t1 : float;
  node_bucket : float array;
  node_kind : float array;
  fill : float array;
}

type crit = {
  c_seg : segment;
  c_node : int;
  c_len : float;
  c_bucket : float array;
  c_kind : float array;
}

type t = {
  t_nodes : int;
  t_buckets : string array;
  t_kinds : string array;
  nb : int;
  nk : int;
  mutable sp : span array;
  mutable nsp : int;
  mutable tot : float array;  (* t_nodes * nb *)
  mutable acc : float array;  (* open segment, t_nodes * nb *)
  mutable acc_kind : float array;  (* t_nodes * nk *)
  mutable acc_fill : float array;  (* t_nodes *)
  mutable segs : segment list;  (* newest first *)
  mutable nsegs : int;
  mutable seg_t0 : float;
}

let dummy_span =
  { id = -1; track = -1; cat = ""; name = ""; t0 = 0.0; dur = 0.0; parent = -1; flow_dst = -1; seg = 0 }

let create ~nodes ~buckets ~kinds =
  if nodes <= 0 then invalid_arg "Timeline.create: nodes must be positive";
  let nb = Array.length buckets and nk = Array.length kinds in
  if nb = 0 then invalid_arg "Timeline.create: no buckets";
  {
    t_nodes = nodes;
    t_buckets = buckets;
    t_kinds = kinds;
    nb;
    nk;
    sp = Array.make 64 dummy_span;
    nsp = 0;
    tot = Array.make (nodes * nb) 0.0;
    acc = Array.make (nodes * nb) 0.0;
    acc_kind = Array.make (nodes * max nk 1) 0.0;
    acc_fill = Array.make nodes 0.0;
    segs = [];
    nsegs = 0;
    seg_t0 = 0.0;
  }

let nodes t = t.t_nodes
let bucket_names t = t.t_buckets
let kind_names t = t.t_kinds

let push t s =
  if t.nsp = Array.length t.sp then begin
    let bigger = Array.make (2 * t.nsp) dummy_span in
    Array.blit t.sp 0 bigger 0 t.nsp;
    t.sp <- bigger
  end;
  t.sp.(t.nsp) <- s;
  t.nsp <- t.nsp + 1

let span t ~track ~cat ~name ~t0 ~dur ?(parent = -1) ?(flow_dst = -1) () =
  let id = t.nsp in
  push t { id; track; cat; name; t0; dur; parent; flow_dst; seg = t.nsegs };
  id

let add_charge t ~node ~bucket ~us =
  let i = (node * t.nb) + bucket in
  t.tot.(i) <- t.tot.(i) +. us;
  t.acc.(i) <- t.acc.(i) +. us

let add_fill t ~node ~bucket ~us =
  let i = (node * t.nb) + bucket in
  t.tot.(i) <- t.tot.(i) +. us;
  t.acc_fill.(node) <- t.acc_fill.(node) +. us

let add_kind_cost t ~node ~kind ~cost =
  let i = (node * t.nk) + kind in
  t.acc_kind.(i) <- t.acc_kind.(i) +. cost

let seal t ~label ~t1 =
  let seg =
    {
      seg_id = t.nsegs;
      label;
      s_t0 = t.seg_t0;
      s_t1 = t1;
      node_bucket = t.acc;
      node_kind = t.acc_kind;
      fill = t.acc_fill;
    }
  in
  t.segs <- seg :: t.segs;
  t.nsegs <- t.nsegs + 1;
  t.acc <- Array.make (t.t_nodes * t.nb) 0.0;
  t.acc_kind <- Array.make (t.t_nodes * max t.nk 1) 0.0;
  t.acc_fill <- Array.make t.t_nodes 0.0;
  t.seg_t0 <- t1

let reset t =
  t.sp <- Array.make 64 dummy_span;
  t.nsp <- 0;
  Array.fill t.tot 0 (Array.length t.tot) 0.0;
  Array.fill t.acc 0 (Array.length t.acc) 0.0;
  Array.fill t.acc_kind 0 (Array.length t.acc_kind) 0.0;
  Array.fill t.acc_fill 0 (Array.length t.acc_fill) 0.0;
  t.segs <- [];
  t.nsegs <- 0;
  t.seg_t0 <- 0.0

let total t ~node ~bucket = t.tot.((node * t.nb) + bucket)
let nspans t = t.nsp

let span_end t id =
  if id < 0 || id >= t.nsp then neg_infinity
  else
    let s = t.sp.(id) in
    s.t0 +. s.dur
let spans t = Array.to_list (Array.sub t.sp 0 t.nsp)
let segments t = List.rev t.segs

(* -- critical paths ------------------------------------------------------- *)

let crit_of t seg =
  let best = ref (-1) and best_len = ref 0.0 in
  for n = 0 to t.t_nodes - 1 do
    let len = ref 0.0 in
    for b = 0 to t.nb - 1 do
      len := !len +. seg.node_bucket.((n * t.nb) + b)
    done;
    if !len > !best_len then begin
      best := n;
      best_len := !len
    end
  done;
  let n = !best in
  {
    c_seg = seg;
    c_node = n;
    c_len = !best_len;
    c_bucket =
      (if n < 0 then Array.make t.nb 0.0 else Array.sub seg.node_bucket (n * t.nb) t.nb);
    c_kind = (if n < 0 then Array.make t.nk 0.0 else Array.sub seg.node_kind (n * t.nk) t.nk);
  }

let critical_paths t = List.map (crit_of t) (segments t)

(* -- rendering ------------------------------------------------------------ *)

let summary t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "timeline: %d spans on %d tracks, %d segments\n\n" t.nsp (t.t_nodes + 1)
       t.nsegs);
  let by_cat = Hashtbl.create 8 in
  for i = 0 to t.nsp - 1 do
    let c = t.sp.(i).cat in
    match Hashtbl.find_opt by_cat c with
    | Some r -> incr r
    | None -> Hashtbl.add by_cat c (ref 1)
  done;
  let cats =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) by_cat []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Buffer.add_string b
    (Ascii.table ~header:[ "span"; "count" ]
       (List.map (fun (c, n) -> [ c; string_of_int n ]) cats));
  let crits = critical_paths t in
  if crits <> [] then begin
    Buffer.add_char b '\n';
    let f v = Printf.sprintf "%.1f" v in
    let top_kinds c =
      let pairs = ref [] in
      Array.iteri (fun k cost -> if cost > 0.0 then pairs := (t.t_kinds.(k), cost) :: !pairs) c.c_kind;
      let sorted =
        List.sort (fun (ka, a) (kb, b) -> compare (b, ka) (a, kb)) !pairs
      in
      match sorted with
      | [] -> "-"
      | l ->
          List.filteri (fun i _ -> i < 2) l
          |> List.map (fun (k, v) -> Printf.sprintf "%s:%s" k (f v))
          |> String.concat " "
    in
    Buffer.add_string b
      (Ascii.table
         ~header:
           ([ "segment"; "wall us"; "node"; "crit us" ]
           @ Array.to_list t.t_buckets
           @ [ "top msg kinds" ])
         (List.map
            (fun c ->
              [
                c.c_seg.label;
                f (c.c_seg.s_t1 -. c.c_seg.s_t0);
                (if c.c_node < 0 then "-" else string_of_int c.c_node);
                f c.c_len;
              ]
              @ List.map f (Array.to_list c.c_bucket)
              @ [ top_kinds c ])
            crits))
  end;
  Buffer.contents b

(* -- serialization -------------------------------------------------------- *)

let fstr = Obs.float_to_string

let to_chrome t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  Buffer.add_string b "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"ccdsm\"}}";
  for n = 0 to t.t_nodes - 1 do
    Buffer.add_string b
      (Printf.sprintf
         ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"node %d\"}}"
         n n)
  done;
  Buffer.add_string b
    (Printf.sprintf
       ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"machine\"}}"
       t.t_nodes);
  for i = 0 to t.nsp - 1 do
    let s = t.sp.(i) in
    if s.dur > 0.0 then
      Buffer.add_string b
        (Printf.sprintf
           ",\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"seg\":%d}}"
           (Json.quote s.name) (Json.quote s.cat) s.track s.t0 s.dur s.id s.parent s.seg)
    else
      Buffer.add_string b
        (Printf.sprintf
           ",\n{\"name\":%s,\"cat\":%s,\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"seg\":%d}}"
           (Json.quote s.name) (Json.quote s.cat) s.track s.t0 s.id s.parent s.seg);
    if s.flow_dst >= 0 then begin
      Buffer.add_string b
        (Printf.sprintf
           ",\n{\"name\":\"flow\",\"cat\":%s,\"ph\":\"s\",\"id\":%d,\"pid\":0,\"tid\":%d,\"ts\":%.3f}"
           (Json.quote s.cat) s.id s.track s.t0);
      Buffer.add_string b
        (Printf.sprintf
           ",\n{\"name\":\"flow\",\"cat\":%s,\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"pid\":0,\"tid\":%d,\"ts\":%.3f}"
           (Json.quote s.cat) s.id s.flow_dst (s.t0 +. s.dur))
    end
  done;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let farray a = "[" ^ String.concat "," (List.map fstr (Array.to_list a)) ^ "]"
let sarray a = "[" ^ String.concat "," (List.map Json.quote (Array.to_list a)) ^ "]"

let to_jsonl t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"type\":\"timeline\",\"version\":1,\"nodes\":%d,\"buckets\":%s,\"kinds\":%s}\n"
       t.t_nodes (sarray t.t_buckets) (sarray t.t_kinds));
  for i = 0 to t.nsp - 1 do
    let s = t.sp.(i) in
    Buffer.add_string b
      (Printf.sprintf
         "{\"type\":\"span\",\"id\":%d,\"track\":%d,\"cat\":%s,\"name\":%s,\"t0\":%s,\"dur\":%s,\"parent\":%d,\"flow\":%d,\"seg\":%d}\n"
         s.id s.track (Json.quote s.cat) (Json.quote s.name) (fstr s.t0) (fstr s.dur) s.parent
         s.flow_dst s.seg)
  done;
  List.iter
    (fun seg ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"type\":\"segment\",\"id\":%d,\"label\":%s,\"t0\":%s,\"t1\":%s,\"node_bucket\":%s,\"node_kind\":%s,\"fill\":%s}\n"
           seg.seg_id (Json.quote seg.label) (fstr seg.s_t0) (fstr seg.s_t1)
           (farray seg.node_bucket) (farray seg.node_kind) (farray seg.fill)))
    (segments t);
  Buffer.add_string b (Printf.sprintf "{\"type\":\"totals\",\"node_bucket\":%s}\n" (farray t.tot));
  Buffer.contents b

(* -- parsing ----------------------------------------------------------------- *)

let header line =
  let open Json.Syntax in
  let* j = Json.parse line in
  let* ty = Json.(field "type" string) j in
  if ty <> "timeline" then Error (Printf.sprintf "type %S" ty)
  else
    let* nodes = Json.(field "nodes" int) j
    and* buckets = Json.(field "buckets" (list string)) j
    and* kinds = Json.(field "kinds" (list string)) j in
    match create ~nodes ~buckets:(Array.of_list buckets) ~kinds:(Array.of_list kinds) with
    | t -> Ok t
    | exception Invalid_argument msg -> Error msg

(* One body line into [t]: a span, a segment or the totals. *)
let add_line t line =
  let open Json.Syntax in
  let* j = Json.parse line in
  let int key = Json.(field key int) j and num key = Json.(field key float) j in
  let str key = Json.(field key string) j in
  let floats key = Result.map Array.of_list (Json.(field key (list float)) j) in
  let* ty = Json.(field "type" string) j in
  match ty with
  | "span" ->
      let* id = int "id" and* track = int "track" and* cat = str "cat" and* name = str "name"
      and* t0 = num "t0" and* dur = num "dur" and* parent = int "parent"
      and* flow_dst = int "flow" and* seg = int "seg" in
      Ok (push t { id; track; cat; name; t0; dur; parent; flow_dst; seg })
  | "segment" ->
      let* seg_id = int "id" and* label = str "label" and* s_t0 = num "t0" and* s_t1 = num "t1"
      and* node_bucket = floats "node_bucket" and* node_kind = floats "node_kind"
      and* fill = floats "fill" in
      t.segs <- { seg_id; label; s_t0; s_t1; node_bucket; node_kind; fill } :: t.segs;
      t.nsegs <- t.nsegs + 1;
      t.seg_t0 <- s_t1;
      Ok ()
  | "totals" ->
      let* a = floats "node_bucket" in
      if Array.length a <> Array.length t.tot then Error "totals: wrong length"
      else Ok (t.tot <- a)
  | _ -> Error "not a timeline line"

let of_jsonl content =
  match String.split_on_char '\n' content |> List.filter (fun l -> String.trim l <> "") with
  | [] -> Error "empty timeline (no lines)"
  | first :: rest -> (
      match header first with
      | Error e -> Error (Printf.sprintf "not a timeline file (bad header line: %s)" e)
      | Ok t ->
          let rec go = function
            | [] -> Ok t
            | line :: rest -> (
                match add_line t line with
                | Ok () -> go rest
                | Error e -> Error (Printf.sprintf "bad timeline line (%s): %s" e line))
          in
          go rest)

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let content =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      if String.trim content = "" then Error (Printf.sprintf "%s: empty timeline file" path)
      else
        Result.map_error (fun e -> Printf.sprintf "%s: %s" path e) (of_jsonl content)
