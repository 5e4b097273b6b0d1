type t = int array (* exactly 16 little-endian 16-bit limbs *)

let limbs = 16
let zero = Array.make limbs 0

let one =
  let a = Array.make limbs 0 in
  a.(0) <- 1;
  a

let of_int v =
  if v < 0 then invalid_arg "Uint256.of_int: negative";
  let a = Array.make limbs 0 in
  let rec fill i v =
    if v <> 0 && i < limbs then begin
      a.(i) <- v land 0xFFFF;
      fill (i + 1) (v lsr 16)
    end
  in
  fill 0 v;
  a

let of_bytes_be s =
  if String.length s <> 32 then invalid_arg "Uint256.of_bytes_be: need 32 bytes";
  let a = Array.make limbs 0 in
  for i = 0 to limbs - 1 do
    (* limb i covers bytes [30-2i] (hi) and [31-2i] (lo) *)
    let hi = Char.code s.[30 - (2 * i)] and lo = Char.code s.[31 - (2 * i)] in
    a.(i) <- (hi lsl 8) lor lo
  done;
  a

let to_bytes_be a =
  let out = Bytes.create 32 in
  for i = 0 to limbs - 1 do
    Bytes.set out (30 - (2 * i)) (Char.chr (a.(i) lsr 8));
    Bytes.set out (31 - (2 * i)) (Char.chr (a.(i) land 0xFF))
  done;
  Bytes.unsafe_to_string out

let of_hex h =
  let n = String.length h in
  if n > 64 then invalid_arg "Uint256.of_hex: too long";
  let padded = String.make (64 - n) '0' ^ h in
  of_bytes_be (Hex.decode padded)

let to_hex a = Hex.encode (to_bytes_be a)
let compare = Limbs.compare
let equal a b = compare a b = 0
let is_zero = Limbs.is_zero
let bit = Limbs.bit
let num_bits = Limbs.num_bits

let mod_add ~modulus a b =
  let s = Limbs.add a b in
  if Limbs.compare s modulus >= 0 then Limbs.resize (Limbs.sub s modulus) limbs
  else Array.sub s 0 limbs

let mod_sub ~modulus a b =
  if Limbs.compare a b >= 0 then Limbs.sub a b
  else Limbs.resize (Limbs.sub (Limbs.add a modulus) b) limbs

let pp fmt a = Format.pp_print_string fmt (to_hex a)
let to_limbs a = Array.copy a
let of_limbs a = Limbs.resize a limbs
