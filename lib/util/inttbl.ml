let hash_bits bits key = (key * 0x278DDE6E5FD29F05) lsr (Sys.int_size - bits)

(* [Hashtbl.Make] masks the low bits of the hash, so the product's high
   bits are shifted down into them. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash key = hash_bits 30 key
end)
