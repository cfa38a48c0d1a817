module Ascii = Ccdsm_util.Ascii
module Obs = Ccdsm_obs.Obs
module Network = Ccdsm_tempest.Network
module Json = Ccdsm_util.Json

(* -- accumulation --------------------------------------------------------- *)

(* Per-message-kind distribution: counts and totals plus a payload-size and
   a priced-cost histogram.  Both share {!Obs.Histogram.default_edges} — the
   size one directly (payloads are powers of two up to the block size), the
   cost one through {!Network.msg_cost} applied to those same edges, which
   keeps the two tables bucket-for-bucket comparable.  The trace does not
   record the cost model it ran under, so pricing uses [Network.default] —
   the parameters every repro command runs with. *)
type kind_acc = {
  mutable mc : int;
  mutable mb : int;
  bytes_h : Obs.Histogram.t;
  cost_h : Obs.Histogram.t;
}

let cost_edges = Array.map (fun b -> Network.msg_cost Network.default ~bytes:(int_of_float b)) Obs.Histogram.default_edges

type acc = {
  by_type : (string, int ref) Hashtbl.t;
  msg_by_kind : (string, kind_acc) Hashtbl.t;
  mutable lines : int;
  mutable unparsed : int;
  mutable read_faults : int;
  mutable write_faults : int;
  mutable presend_writes : int;
  mutable conflicts : int;
}

let create () =
  {
    by_type = Hashtbl.create 16;
    msg_by_kind = Hashtbl.create 16;
    lines = 0;
    unparsed = 0;
    read_faults = 0;
    write_faults = 0;
    presend_writes = 0;
    conflicts = 0;
  }

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.add tbl key (ref 1)

(* Lines are read leniently: any JSON object with a string "type" counts,
   and absent fields default, so a hand-made or partial trace still
   summarizes. *)
let add acc line =
  if String.trim line <> "" then begin
    acc.lines <- acc.lines + 1;
    let j = Result.value (Json.parse line) ~default:Json.Null in
    let str key = Result.to_option (Json.(field key string) j) in
    match str "type" with
    | None -> acc.unparsed <- acc.unparsed + 1
    | Some ty -> (
        bump acc.by_type ty;
        match ty with
        | "msg" ->
            let kind = Option.value (str "kind") ~default:"?" in
            let bytes = Result.value (Json.(field "bytes" int) j) ~default:0 in
            let cell =
              match Hashtbl.find_opt acc.msg_by_kind kind with
              | Some r -> r
              | None ->
                  let r =
                    {
                      mc = 0;
                      mb = 0;
                      bytes_h = Obs.Histogram.make Obs.Histogram.default_edges;
                      cost_h = Obs.Histogram.make cost_edges;
                    }
                  in
                  Hashtbl.add acc.msg_by_kind kind r;
                  r
            in
            cell.mc <- cell.mc + 1;
            cell.mb <- cell.mb + bytes;
            Obs.Histogram.observe cell.bytes_h (float_of_int bytes);
            Obs.Histogram.observe cell.cost_h (Network.msg_cost Network.default ~bytes)
        | "fault" ->
            if str "kind" = Some "write" then acc.write_faults <- acc.write_faults + 1
            else acc.read_faults <- acc.read_faults + 1
        | "presend" ->
            if str "kind" = Some "write" then acc.presend_writes <- acc.presend_writes + 1
        | "sched_conflict" -> acc.conflicts <- acc.conflicts + 1
        | _ -> ())
  end

(* -- rendering ------------------------------------------------------------ *)

let sorted_assoc tbl read =
  Hashtbl.fold (fun k v acc -> (k, read v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let get acc ty =
  match Hashtbl.find_opt acc.by_type ty with Some r -> !r | None -> 0

let render acc =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "trace: %d events (%d unparsed lines)\n\n" acc.lines acc.unparsed);
  Buffer.add_string b
    (Ascii.table ~header:[ "event"; "count" ]
       (List.map
          (fun (ty, n) -> [ ty; string_of_int n ])
          (sorted_assoc acc.by_type (fun r -> !r))));
  let msgs = sorted_assoc acc.msg_by_kind Fun.id in
  if msgs <> [] then begin
    Buffer.add_char b '\n';
    Buffer.add_string b
      (Ascii.table
         ~header:
           [ "msg kind"; "msgs"; "bytes"; "B p50"; "B p95"; "cost(us)"; "us p50"; "us p95" ]
         (List.map
            (fun (kind, k) ->
              [
                kind;
                string_of_int k.mc;
                string_of_int k.mb;
                Printf.sprintf "%.0f" (Obs.Histogram.quantile k.bytes_h 0.5);
                Printf.sprintf "%.0f" (Obs.Histogram.quantile k.bytes_h 0.95);
                Printf.sprintf "%.0f" (Obs.Histogram.sum k.cost_h);
                Printf.sprintf "%.1f" (Obs.Histogram.quantile k.cost_h 0.5);
                Printf.sprintf "%.1f" (Obs.Histogram.quantile k.cost_h 0.95);
              ])
            msgs))
  end;
  Buffer.add_char b '\n';
  Buffer.add_string b
    (Printf.sprintf
       "faults: %d read, %d write; presends: %d (%d ownership grants); schedule \
        conflicts: %d; barriers: %d\n"
       acc.read_faults acc.write_faults (get acc "presend") acc.presend_writes
       acc.conflicts (get acc "barrier"));
  Buffer.contents b

let read_channel ic =
  let acc = create () in
  (try
     while true do
       add acc (input_line ic)
     done
   with End_of_file -> ());
  acc

let of_channel ic = render (read_channel ic)

let of_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> of_channel ic)

let summarize_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let acc = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read_channel ic) in
      if acc.lines = 0 then Error (Printf.sprintf "%s: empty trace (no events)" path)
      else if acc.unparsed > 0 then
        Error
          (Printf.sprintf "%s: %d of %d lines are not trace events (is this a JSONL trace?)"
             path acc.unparsed acc.lines)
      else Ok (render acc)
