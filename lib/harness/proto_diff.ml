module Machine = Ccdsm_tempest.Machine
module Faults = Ccdsm_tempest.Faults
module Runtime = Ccdsm_runtime.Runtime

type row = {
  protocol : string;
  digest : int64;
  checksum : float;
  total_us : float;
  buckets : (string * float) list;
  remote_misses : int;
  msgs : int;
  bytes : int;
  stats : (string * float) list;
}

type report = {
  app : string;
  nodes : int;
  block_bytes : int;
  rows : row list;
  agree : bool;
}

(* FNV-1a 64 ({!Ccdsm_util.Fnv}) over the raw bit patterns of every
   shared-heap word.  A plain float sum (the apps' checksum) can hide
   reordered or swapped values; the digest is sensitive to every bit of
   every word, so two protocols agree only if they leave byte-identical
   heaps. *)
let digest_of_machine m =
  let h = ref Ccdsm_util.Fnv.init in
  let words = Machine.num_blocks m * Machine.words_per_block m in
  for a = 0 to words - 1 do
    h := Ccdsm_util.Fnv.feed_int64 !h (Int64.bits_of_float (Machine.peek m a))
  done;
  !h

let all_protocols () =
  List.map
    (fun name ->
      match Runtime.protocol_of_name name with
      | Ok p -> p
      | Error msg -> invalid_arg msg)
    (Runtime.protocol_names ())

let create_runtime ~nodes ~block_bytes ~migratory_threshold ~faults ~check_races protocol =
  let cfg = Machine.default_config ~num_nodes:nodes ~block_bytes () in
  let rt =
    Runtime.create ~cfg ~migratory_threshold ~sanitize:true ~check_races ~protocol ()
  in
  (match faults with
  | None -> ()
  | Some p ->
      Machine.set_faults (Runtime.machine rt)
        (if Faults.is_zero p then None else Some (Faults.create p)));
  rt

let run_one ~nodes ~block_bytes ~migratory_threshold ~faults ~check_races ~run protocol =
  let rt = create_runtime ~nodes ~block_bytes ~migratory_threshold ~faults ~check_races protocol in
  let m = Runtime.machine rt in
  let checksum = run rt in
  let c = Machine.total_counters m in
  {
    protocol = Runtime.protocol_name protocol;
    digest = digest_of_machine m;
    checksum;
    total_us = Runtime.total_time rt;
    buckets =
      List.map (fun (b, us) -> (Machine.bucket_name b, us)) (Runtime.time_breakdown rt);
    remote_misses = c.Machine.read_faults + c.Machine.write_faults;
    msgs = c.Machine.msgs;
    bytes = c.Machine.bytes;
    stats = (Runtime.coherence rt).Ccdsm_proto.Coherence.stats ();
  }

let run ?protocols ?(nodes = 8) ?(block_bytes = 32) ?(migratory_threshold = 1) ?faults
    ?(check_races = true) ~app ~run () =
  let protocols = match protocols with Some ps -> ps | None -> all_protocols () in
  let rows =
    List.map (run_one ~nodes ~block_bytes ~migratory_threshold ~faults ~check_races ~run) protocols
  in
  let agree =
    match rows with
    | [] -> true
    | first :: rest -> List.for_all (fun r -> Int64.equal r.digest first.digest) rest
  in
  { app; nodes; block_bytes; rows; agree }

let find report name = List.find_opt (fun r -> r.protocol = name) report.rows

let render report =
  let header = [ "protocol"; "total(ms)"; "misses"; "msgs"; "KB"; "heap digest" ] in
  let rows =
    List.map
      (fun r ->
        [
          r.protocol;
          Printf.sprintf "%.1f" (r.total_us /. 1000.0);
          string_of_int r.remote_misses;
          string_of_int r.msgs;
          Printf.sprintf "%.1f" (float_of_int r.bytes /. 1024.0);
          Printf.sprintf "%016Lx" r.digest;
        ])
      report.rows
  in
  Printf.sprintf "%s (%d nodes, %dB blocks): final heaps %s\n" report.app report.nodes
    report.block_bytes
    (if report.agree then "agree" else "DISAGREE")
  ^ Ccdsm_util.Ascii.table ~header rows
