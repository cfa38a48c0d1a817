(* Order statistics for host-time samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))))

let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(rank ~n p - 1)

let beyond ~n p = n - rank ~n p

let min_beyond = 10

let supports ~n p = n > 0 && beyond ~n p >= min_beyond

(* A timing is reported as its median and the highest percentile that still
   has [min_beyond] samples above it. *)
let candidates = [ 50.0; 75.0; 80.0; 90.0; 95.0; 99.0; 99.9 ]

let tail_percentile n =
  List.fold_left (fun acc p -> if supports ~n p then Some p else acc) None candidates

let sum xs = List.fold_left ( +. ) 0.0 xs

(* The time of a fixed piece of work made of units (a driver, a request),
   each unit at its best over the repetitions: [reps] holds one list of unit
   times per repetition, every list in the same unit order.  The hosts this
   runs on change speed by ~1.4x for seconds at a time, so a median over
   repetitions of several seconds moves with the share of the run spent in
   the slow state, while each unit of a second or so runs in the fast state
   at least once in nearly every run. *)
let best_total = function
  | [] -> nan
  | first :: rest -> sum (List.fold_left (List.map2 Float.min) first rest)
