(* Hybrid representation, canonical in both arms:

   - An immediate int: a bitmask over node ids 0..61+1 = 0..[small_limit-1].
     Every set whose members all lie below [small_limit] MUST use this arm
     (the empty set is the int 0).  add/remove/union/inter/diff on two small
     sets are single machine ops with no allocation — the common case, since
     the paper's experiments run 32 nodes.
   - A little-endian byte-string bitset with NO trailing zero bytes, used
     exactly when some member is >= [small_limit] (so its length is >= 8 and,
     at length 8, the top bit of byte 7 — node 63 — is set).

   Canonicity across the two arms makes the structural operations free:
   equal sets are physically the same shape, so polymorphic compare and
   hashing work for callers that canonicalize states (the model checker) or
   key hash tables.  The two arms are distinguished with [Obj.is_int]; the
   [t]-typed values are only ever the two shapes above. *)

type t = Obj.t

let node_bits = 10
let max_nodes = 1 lsl node_bits
let pack x ~node = (x lsl node_bits) lor node
let packed_hi key = key lsr node_bits
let packed_node key = key land (max_nodes - 1)

(* Members below this bound live in the int arm: bits 0..62 of a 63-bit
   OCaml int. *)
let small_limit = 63

let check i =
  if i < 0 || i >= max_nodes then invalid_arg "Nodeset: node id out of range"

let of_mask (m : int) : t = Obj.repr m
let as_mask (t : t) : int = (Obj.obj t : int)
let of_str (s : string) : t = Obj.repr s
let as_str (t : t) : string = (Obj.obj t : string)
let is_mask (t : t) = Obj.is_int t

let empty = of_mask 0
let is_empty t = is_mask t && as_mask t = 0

(* Bits 0..62 of a string arm's low bytes, as an int-arm mask (bit 63 —
   node 63 — is byte 7's top bit and is excluded). *)
let low_mask s =
  let n = min 8 (String.length s) in
  let m = ref 0 in
  for k = 0 to min n 7 - 1 do
    m := !m lor (Char.code (String.unsafe_get s k) lsl (k lsl 3))
  done;
  (* Byte 7's top bit is node 63 — beyond the int arm — and would also shift
     past the 63-bit int width, so mask it off before shifting. *)
  if n = 8 then m := !m lor ((Char.code (String.unsafe_get s 7) land 0x7f) lsl 56);
  !m

(* Canonicalize [b.(0..len-1)] (which may have trailing zero bytes): trim,
   then demote to the int arm when every member is below [small_limit]. *)
let canon b len =
  let last = ref (len - 1) in
  while !last >= 0 && Bytes.unsafe_get b !last = '\000' do
    decr last
  done;
  let n = !last + 1 in
  if n = 0 then empty
  else if n < 8 || (n = 8 && Char.code (Bytes.unsafe_get b 7) land 0x80 = 0) then begin
    let m = ref 0 in
    for k = 0 to n - 1 do
      m := !m lor (Char.code (Bytes.unsafe_get b k) lsl (k lsl 3))
    done;
    of_mask !m
  end
  else if n = len && Bytes.length b = len then of_str (Bytes.unsafe_to_string b)
  else of_str (Bytes.sub_string b 0 n)

(* A string arm's bytes seeded from an int-arm mask, [len >= 8] bytes. *)
let bytes_of_mask m len =
  let b = Bytes.make len '\000' in
  for k = 0 to 7 do
    Bytes.unsafe_set b k (Char.unsafe_chr ((m lsr (k lsl 3)) land 0xff))
  done;
  b

let singleton i =
  check i;
  if i < small_limit then of_mask (1 lsl i)
  else begin
    let k = i lsr 3 in
    let b = Bytes.make (k + 1) '\000' in
    Bytes.unsafe_set b k (Char.unsafe_chr (1 lsl (i land 7)));
    of_str (Bytes.unsafe_to_string b)
  end

let mem i t =
  check i;
  if is_mask t then i < small_limit && (as_mask t lsr i) land 1 <> 0
  else begin
    let s = as_str t in
    let k = i lsr 3 in
    k < String.length s && Char.code (String.unsafe_get s k) land (1 lsl (i land 7)) <> 0
  end

let add i t =
  check i;
  if is_mask t then
    if i < small_limit then of_mask (as_mask t lor (1 lsl i))
    else begin
      (* Promote: the new member is >= small_limit, so the result's top byte
         (index i/8 >= 7, with node 63's bit set when the length is 8) keeps
         it in the string arm and canonical. *)
      let k = i lsr 3 in
      let b = bytes_of_mask (as_mask t) (k + 1) in
      Bytes.unsafe_set b k
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get b k) lor (1 lsl (i land 7))));
      of_str (Bytes.unsafe_to_string b)
    end
  else begin
    let s = as_str t in
    let k = i lsr 3 in
    let sl = String.length s in
    if k < sl && Char.code (String.unsafe_get s k) land (1 lsl (i land 7)) <> 0 then t
    else begin
      (* [s]'s top member survives (adding can't remove), so the result stays
         in the string arm; its highest byte is nonzero by construction. *)
      let len = max sl (k + 1) in
      let b = Bytes.make len '\000' in
      Bytes.blit_string s 0 b 0 sl;
      Bytes.unsafe_set b k
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get b k) lor (1 lsl (i land 7))));
      of_str (Bytes.unsafe_to_string b)
    end
  end

let remove i t =
  check i;
  if is_mask t then
    if i < small_limit then of_mask (as_mask t land lnot (1 lsl i)) else t
  else begin
    let s = as_str t in
    let k = i lsr 3 in
    if k >= String.length s || Char.code (String.unsafe_get s k) land (1 lsl (i land 7)) = 0
    then t
    else begin
      let b = Bytes.of_string s in
      Bytes.unsafe_set b k
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get b k) land lnot (1 lsl (i land 7))));
      (* Removing the top member can empty the high bytes: re-canonicalize,
         demoting to the int arm if everything left is small. *)
      canon b (Bytes.length b)
    end
  end

let rec union a b =
  if is_mask a then
    if is_mask b then of_mask (as_mask a lor as_mask b)
    else if as_mask a = 0 then b
    else begin
      (* [b]'s top byte survives the or, so the result is canonical and stays
         in the string arm. *)
      let s = as_str b in
      let r = bytes_of_mask (as_mask a) (String.length s) in
      for k = 0 to String.length s - 1 do
        Bytes.unsafe_set r k
          (Char.unsafe_chr
             (Char.code (String.unsafe_get s k) lor Char.code (Bytes.unsafe_get r k)))
      done;
      of_str (Bytes.unsafe_to_string r)
    end
  else if is_mask b then union b a
  else begin
    let sa = as_str a and sb = as_str b in
    let la = String.length sa and lb = String.length sb in
    let short, long = if la <= lb then (sa, sb) else (sb, sa) in
    let r = Bytes.of_string long in
    for k = 0 to String.length short - 1 do
      Bytes.unsafe_set r k
        (Char.unsafe_chr
           (Char.code (String.unsafe_get short k) lor Char.code (Bytes.unsafe_get r k)))
    done;
    of_str (Bytes.unsafe_to_string r)
  end

let inter a b =
  if is_mask a then
    if is_mask b then of_mask (as_mask a land as_mask b)
    else of_mask (as_mask a land low_mask (as_str b))
  else if is_mask b then of_mask (as_mask b land low_mask (as_str a))
  else begin
    let sa = as_str a and sb = as_str b in
    let n = min (String.length sa) (String.length sb) in
    let r = Bytes.create n in
    for k = 0 to n - 1 do
      Bytes.unsafe_set r k
        (Char.unsafe_chr
           (Char.code (String.unsafe_get sa k) land Char.code (String.unsafe_get sb k)))
    done;
    canon r n
  end

let diff a b =
  if is_mask a then
    if is_mask b then of_mask (as_mask a land lnot (as_mask b))
    else of_mask (as_mask a land lnot (low_mask (as_str b)))
  else begin
    let sa = as_str a in
    let la = String.length sa in
    let r = Bytes.of_string sa in
    if is_mask b then begin
      let mb = as_mask b in
      let n = min la 8 in
      for k = 0 to n - 1 do
        Bytes.unsafe_set r k
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get r k) land lnot ((mb lsr (k lsl 3)) land 0xff)))
      done
    end
    else begin
      let sb = as_str b in
      let n = min la (String.length sb) in
      for k = 0 to n - 1 do
        Bytes.unsafe_set r k
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get r k) land lnot (Char.code (String.unsafe_get sb k))))
      done
    end;
    canon r la
  end

let popcount_byte c =
  let x = c - ((c lsr 1) land 0x55) in
  let x = (x land 0x33) + ((x lsr 2) land 0x33) in
  (x + (x lsr 4)) land 0x0f

let cardinal t =
  if is_mask t then begin
    let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
    go (as_mask t) 0
  end
  else begin
    let s = as_str t in
    let acc = ref 0 in
    for k = 0 to String.length s - 1 do
      acc := !acc + popcount_byte (Char.code (String.unsafe_get s k))
    done;
    !acc
  end

let equal a b =
  if is_mask a then is_mask b && as_mask a = as_mask b
  else (not (is_mask b)) && String.equal (as_str a) (as_str b)

let subset a b =
  if is_mask a then
    if is_mask b then as_mask a land lnot (as_mask b) = 0
    else as_mask a land lnot (low_mask (as_str b)) = 0
  else if is_mask b then false (* the string arm always has a member >= 63 *)
  else begin
    let sa = as_str a and sb = as_str b in
    let lb = String.length sb in
    let ok = ref true in
    String.iteri
      (fun k c ->
        let cb = if k < lb then Char.code (String.unsafe_get sb k) else 0 in
        if Char.code c land lnot cb <> 0 then ok := false)
      sa;
    !ok
  end

let lowest_bit c =
  let rec go i = if c land (1 lsl i) <> 0 then i else go (i + 1) in
  go 0

let choose t =
  if is_mask t then begin
    let m = as_mask t in
    if m = 0 then raise Not_found;
    lowest_bit m
  end
  else begin
    let s = as_str t in
    let k = ref 0 in
    while String.unsafe_get s !k = '\000' do
      incr k
    done;
    (!k lsl 3) + lowest_bit (Char.code (String.unsafe_get s !k))
  end

let iter f t =
  if is_mask t then begin
    (* Shift-scan: exits after the highest member instead of walking all 63
       bit positions — reader sets are usually dense over low node ids. *)
    let m = ref (as_mask t) in
    let i = ref 0 in
    while !m <> 0 do
      if !m land 1 <> 0 then f !i;
      incr i;
      m := !m lsr 1
    done
  end
  else begin
    let s = as_str t in
    for k = 0 to String.length s - 1 do
      let c = Char.code (String.unsafe_get s k) in
      if c <> 0 then
        for bit = 0 to 7 do
          if c land (1 lsl bit) <> 0 then f ((k lsl 3) + bit)
        done
    done
  end

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list l = List.fold_left (fun acc i -> add i acc) empty l

let pp ppf t =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int (elements t)))
