type t = {
  mutable slots : int array;
  mutable bits : int;  (* log2 of the slot count *)
  mutable live : int;
  mutable gen : int;  (* from 1: a fresh slot's stamp 0 is never live *)
}

let initial_bits = 6

let create () =
  { slots = Array.make (2 lsl initial_bits) 0; bits = initial_bits; live = 0; gen = 1 }

let clear t =
  t.gen <- t.gen + 1;
  t.live <- 0

(* The key's slot: where it lives, or the first free slot of its probe
   sequence.  Indices are masked, so the unchecked reads stay in range. *)
let find slots bits gen key =
  let mask = (1 lsl bits) - 1 in
  let i = ref (Inttbl.hash_bits bits key) in
  while
    Array.unsafe_get slots ((2 * !i) + 1) = gen && Array.unsafe_get slots (2 * !i) <> key
  do
    i := (!i + 1) land mask
  done;
  !i

let grow t =
  let old = t.slots in
  t.bits <- t.bits + 1;
  t.slots <- Array.make (2 lsl t.bits) 0;
  for i = 0 to (Array.length old / 2) - 1 do
    if old.((2 * i) + 1) = t.gen then begin
      let j = find t.slots t.bits t.gen old.(2 * i) in
      t.slots.(2 * j) <- old.(2 * i);
      t.slots.((2 * j) + 1) <- t.gen
    end
  done

let mem t key =
  let i = find t.slots t.bits t.gen key in
  Array.unsafe_get t.slots ((2 * i) + 1) = t.gen

let add t key =
  let i = find t.slots t.bits t.gen key in
  if Array.unsafe_get t.slots ((2 * i) + 1) = t.gen then false
  else begin
    Array.unsafe_set t.slots (2 * i) key;
    Array.unsafe_set t.slots ((2 * i) + 1) t.gen;
    t.live <- t.live + 1;
    if 2 * t.live > 1 lsl t.bits then grow t;
    true
  end
