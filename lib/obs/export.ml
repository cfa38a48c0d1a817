(* Exporters over a registry snapshot.  Both renderings are deterministic:
   rows arrive sorted from [Obs.Registry.snapshot], labels are canonical,
   and floats go through [Obs.float_to_string]. *)

module Stats = Ccdsm_util.Stats
module Json = Ccdsm_util.Json

let f2s = Obs.float_to_string

(* Quantile over exported histogram data; same interpolation rule as
   [Obs.Histogram.quantile]. *)
let hist_quantile ~edges ~counts ~count q =
  if count = 0 then 0.0
  else
    let rank = q *. float_of_int count in
    let n = Array.length edges in
    let rec go i acc =
      if i >= n then edges.(n - 1)
      else
        let acc' = acc + counts.(i) in
        if float_of_int acc' >= rank then
          let lower = if i = 0 then 0.0 else edges.(i - 1) in
          let upper = edges.(i) in
          if counts.(i) = 0 then upper
          else lower +. ((rank -. float_of_int acc) /. float_of_int counts.(i) *. (upper -. lower))
        else go (i + 1) acc'
    in
    go 0 0

(* ------------------------------------------------------------------ *)
(* Prometheus text format                                              *)
(* ------------------------------------------------------------------ *)

let prom_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels ?extra labels =
  let all = match extra with None -> labels | Some kv -> labels @ [ kv ] in
  match all with
  | [] -> ""
  | kvs ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) kvs)
      ^ "}"

let prometheus_of_snapshot (snap : Obs.snapshot) =
  let buf = Buffer.create 4096 in
  let last_typed = ref "" in
  List.iter
    (fun (r : Obs.row) ->
      let typ =
        match r.value with
        | Obs.VCounter _ -> "counter"
        | Obs.VGauge _ -> "gauge"
        | Obs.VHistogram _ -> "histogram"
      in
      if !last_typed <> r.name then begin
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" r.name typ);
        last_typed := r.name
      end;
      match r.value with
      | Obs.VCounter v -> Buffer.add_string buf
          (Printf.sprintf "%s%s %d\n" r.name (prom_labels r.labels) v)
      | Obs.VGauge v ->
          Buffer.add_string buf (Printf.sprintf "%s%s %s\n" r.name (prom_labels r.labels) (f2s v))
      | Obs.VHistogram { edges; counts; sum; count } ->
          let cum = ref 0 in
          Array.iteri
            (fun i edge ->
              cum := !cum + counts.(i);
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" r.name
                   (prom_labels r.labels ~extra:("le", f2s edge))
                   !cum))
            edges;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" r.name
               (prom_labels r.labels ~extra:("le", "+Inf"))
               count);
          Buffer.add_string buf (Printf.sprintf "%s_sum%s %s\n" r.name (prom_labels r.labels) (f2s sum));
          Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" r.name (prom_labels r.labels) count))
    snap;
  Buffer.contents buf

let prometheus reg = prometheus_of_snapshot (Obs.Registry.snapshot reg)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Json.quote k ^ ":" ^ Json.quote v) labels)
  ^ "}"

let json_float_array a = "[" ^ String.concat "," (List.map f2s (Array.to_list a)) ^ "]"
let json_int_array a = "[" ^ String.concat "," (List.map string_of_int (Array.to_list a)) ^ "]"

let json_metric (r : Obs.row) =
  match r.value with
  | Obs.VCounter v ->
      Printf.sprintf "{\"name\":%s,\"labels\":%s,\"type\":\"counter\",\"value\":%d}"
        (Json.quote r.name) (json_labels r.labels) v
  | Obs.VGauge v ->
      Printf.sprintf "{\"name\":%s,\"labels\":%s,\"type\":\"gauge\",\"value\":%s}"
        (Json.quote r.name) (json_labels r.labels) (f2s v)
  | Obs.VHistogram { edges; counts; sum; count } ->
      let q p = f2s (hist_quantile ~edges ~counts ~count p) in
      Printf.sprintf
        "{\"name\":%s,\"labels\":%s,\"type\":\"histogram\",\"edges\":%s,\"counts\":%s,\"sum\":%s,\"count\":%d,\"p50\":%s,\"p95\":%s,\"p99\":%s}"
        (Json.quote r.name) (json_labels r.labels) (json_float_array edges)
        (json_int_array counts) (f2s sum) count (q 0.5) (q 0.95) (q 0.99)

let json_span (s : Obs.span) =
  let deltas =
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Json.quote k ^ ":" ^ f2s v) s.deltas)
    ^ "}"
  in
  Printf.sprintf "{\"seq\":%d,\"phase\":%d,\"name\":%s,\"labels\":%s,\"deltas\":%s}" s.seq
    s.phase (Json.quote s.name) (json_labels s.labels) deltas

(* Per-span-name summary of the watched "total_us" delta, exercising the
   sorted-array quantiles and sample stddev from Stats. *)
let span_summaries spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Obs.span) ->
      match List.assoc_opt "total_us" s.deltas with
      | None -> ()
      | Some v ->
          let prev = try Hashtbl.find tbl s.name with Not_found -> [] in
          Hashtbl.replace tbl s.name (v :: prev))
    spans;
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort_uniq String.compare in
  List.map
    (fun name ->
      let samples = Array.of_list (List.rev (Hashtbl.find tbl name)) in
      Printf.sprintf
        "{\"name\":%s,\"n\":%d,\"total_us\":{\"mean\":%s,\"stddev\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s}}"
        (Json.quote name) (Array.length samples)
        (f2s (Stats.mean samples))
        (f2s (Stats.stddev_sample samples))
        (f2s (Stats.quantile samples 0.5))
        (f2s (Stats.quantile samples 0.95))
        (f2s (Stats.quantile samples 0.99)))
    names

let json reg =
  let snap = Obs.Registry.snapshot reg in
  let spans = Obs.Registry.spans reg in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema\": \"ccdsm-metrics-1\",\n  \"metrics\": [\n";
  Buffer.add_string buf
    (String.concat ",\n" (List.map (fun r -> "    " ^ json_metric r) snap));
  Buffer.add_string buf "\n  ],\n  \"spans\": [\n";
  Buffer.add_string buf (String.concat ",\n" (List.map (fun s -> "    " ^ json_span s) spans));
  Buffer.add_string buf "\n  ],\n  \"span_summary\": [\n";
  Buffer.add_string buf
    (String.concat ",\n" (List.map (fun s -> "    " ^ s) (span_summaries spans)));
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
