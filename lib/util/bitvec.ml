type t = { width : int; words : Bytes.t }

(* The vector is stored little-endian in a byte string; bit [i] lives in byte
   [i lsr 3] at position [i land 7].  Bytes beyond [width] are kept zero so
   [equal]/[count] can work bytewise without masking. *)

let bytes_for n = (n + 7) / 8

let create n =
  assert (n >= 0);
  { width = n; words = Bytes.make (bytes_for n) '\000' }

let length t = t.width

let copy t = { width = t.width; words = Bytes.copy t.words }

let check t i = if i < 0 || i >= t.width then invalid_arg "Bitvec: index out of bounds"

let get t i =
  check t i;
  Char.code (Bytes.get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let b = i lsr 3 in
  Bytes.set t.words b (Char.chr (Char.code (Bytes.get t.words b) lor (1 lsl (i land 7))))

let clear t i =
  check t i;
  let b = i lsr 3 in
  Bytes.set t.words b (Char.chr (Char.code (Bytes.get t.words b) land lnot (1 lsl (i land 7)) land 0xff))

let is_empty t =
  let n = Bytes.length t.words in
  let rec go i = i >= n || (Bytes.get t.words i = '\000' && go (i + 1)) in
  go 0

let popcount_byte =
  let tbl = Array.make 256 0 in
  for i = 1 to 255 do
    tbl.(i) <- tbl.(i lsr 1) + (i land 1)
  done;
  fun c -> tbl.(Char.code c)

let count t =
  let n = Bytes.length t.words in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + popcount_byte (Bytes.get t.words i)
  done;
  !acc

let same_width a b = if a.width <> b.width then invalid_arg "Bitvec: width mismatch"

let equal a b = same_width a b; Bytes.equal a.words b.words

let binop f ~dst src =
  same_width dst src;
  let changed = ref false in
  for i = 0 to Bytes.length dst.words - 1 do
    let d = Char.code (Bytes.get dst.words i) and s = Char.code (Bytes.get src.words i) in
    let r = f d s in
    if r <> d then begin
      changed := true;
      Bytes.set dst.words i (Char.chr r)
    end
  done;
  !changed

let union_into ~dst src = binop (fun d s -> d lor s) ~dst src
let inter_into ~dst src = binop (fun d s -> d land s) ~dst src
let diff_into ~dst src = binop (fun d s -> d land lnot s land 0xff) ~dst src

let blit ~src ~dst =
  same_width src dst;
  Bytes.blit src.words 0 dst.words 0 (Bytes.length src.words)

let fill t v =
  if not v then Bytes.fill t.words 0 (Bytes.length t.words) '\000'
  else begin
    Bytes.fill t.words 0 (Bytes.length t.words) '\255';
    (* Clear the padding bits past [width] to keep the representation
       canonical. *)
    for i = t.width to (Bytes.length t.words * 8) - 1 do
      let b = i lsr 3 in
      Bytes.set t.words b (Char.chr (Char.code (Bytes.get t.words b) land lnot (1 lsl (i land 7)) land 0xff))
    done
  end

let to_list t =
  let acc = ref [] in
  for i = t.width - 1 downto 0 do
    if get t i then acc := i :: !acc
  done;
  !acc

let of_list n l =
  let t = create n in
  List.iter (set t) l;
  t

let pp ppf t =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int (to_list t)))
