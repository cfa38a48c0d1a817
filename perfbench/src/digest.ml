(* sim.stats_digest: an FNV-1a-64 hash over every simulated statistic a
   workload produced, fed in a seed-independent order.  Floats enter by
   their bit pattern, so two runs — or a change that only touches host
   code — must agree bit for bit. *)

module Fnv = Ccdsm_util.Fnv

type t = int64 ref

let create () = ref Fnv.init
let string t s = t := Fnv.feed_string (Fnv.feed_string !t s) "\x00"
let int t n = t := Fnv.feed_int64 !t (Int64.of_int n)
let float t x = t := Fnv.feed_int64 !t (Int64.bits_of_float x)
let hex t = Fnv.to_hex !t

(* The low 52 bits, exactly representable as a JSON number. *)
let as_number t = Int64.to_float (Int64.logand !t 0xF_FFFF_FFFF_FFFFL)

let of_measurement t (m : Ccdsm_harness.Measure.measurement) =
  let open Ccdsm_harness.Measure in
  string t m.label;
  List.iter (float t) [ m.total_us; m.compute_us; m.remote_wait_us; m.presend_us; m.synch_us; m.checksum; m.local_fraction ];
  let c = m.counters in
  let open Ccdsm_tempest.Machine in
  List.iter (int t)
    [ c.local_reads; c.local_writes; c.read_faults; c.write_faults; c.msgs; c.bytes; c.invalidations;
      c.downgrades; c.retries; c.timeouts; c.presend_fallbacks ];
  string t (Ccdsm_obs.Export.prometheus_of_snapshot m.metrics)
