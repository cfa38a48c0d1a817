type t = {
  msg_startup_us : float;
  per_byte_us : float;
  fault_us : float;
  barrier_hop_us : float;
  ctrl_bytes : int;
}

let default =
  { msg_startup_us = 75.0; per_byte_us = 0.10; fault_us = 40.0; barrier_hop_us = 10.0; ctrl_bytes = 16 }

let hardware_dsm =
  { msg_startup_us = 5.0; per_byte_us = 0.02; fault_us = 2.0; barrier_hop_us = 2.0; ctrl_bytes = 16 }

let msg_cost t ~bytes = t.msg_startup_us +. (float_of_int bytes *. t.per_byte_us)

let barrier_cost t ~nodes =
  let rec log2_ceil n acc = if n <= 1 then acc else log2_ceil ((n + 1) / 2) (acc + 1) in
  float_of_int (log2_ceil nodes 0) *. t.barrier_hop_us
