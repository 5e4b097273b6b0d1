(* Scalars mod the secp256k1 group order n, on Uint256's 16-bit limbs.

   n = 2^256 - c with c below 2^129, so a product reduces by folding:
   t = hi 2^256 + lo = hi c + lo (mod n). Each fold shrinks t by about
   127 bits; after at most four of them t is below 2^256 < 2n and one
   conditional subtraction finishes — no bit-serial division. *)

let n =
  Uint256.of_hex
    "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"

let limbs = Uint256.to_limbs
let n_limbs = limbs n

(* 2^256 - n, 129 bits: nine 16-bit limbs. *)
let c_limbs =
  Array.sub (limbs (Uint256.of_hex "14551231950b75fc4402da1732fc9bebf")) 0 9

let rec reduce_limbs t =
  let hi = Array.sub t 16 (Array.length t - 16) in
  if Limbs.is_zero hi then begin
    let t = ref (Limbs.resize t 16) in
    while Limbs.compare !t n_limbs >= 0 do
      t := Limbs.resize (Limbs.sub !t n_limbs) 16
    done;
    Uint256.of_limbs !t
  end
  else reduce_limbs (Limbs.add (Limbs.mul hi c_limbs) (Array.sub t 0 16))

let reduce a = reduce_limbs (limbs a)
let mul a b = reduce_limbs (Limbs.mul (limbs a) (limbs b))
let add a b = Uint256.mod_add ~modulus:n a b
let neg a = Uint256.mod_sub ~modulus:n Uint256.zero a

(* --- The GLV endomorphism: lambda * (x, y) = (beta x, y), with
   lambda^3 = 1 (mod n) and beta^3 = 1 (mod p). Splitting
   k = k1 + lambda k2 with |k1|, |k2| of about 128 bits halves the
   doubling chain of a variable-base multiplication. The lattice basis
   and the rounding constants g1 = round(2^384 b2 / n) and
   g2 = round(2^384 (-b1) / n) are libsecp256k1's. --- *)

let lambda =
  Uint256.of_hex
    "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72"

let minus_b1 = Uint256.of_hex "e4437ed6010e88286f547fa90abfe4c3"

let minus_b2 =
  Uint256.of_hex
    "fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c"

let g1 =
  limbs
    (Uint256.of_hex
       "3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031")

let g2 =
  limbs
    (Uint256.of_hex
       "e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71")

(* round(k g / 2^384): limbs 24.. of the product, plus bit 383. *)
let mul_shift_384 k g =
  let prod = Limbs.mul (limbs k) g in
  let round = prod.(23) lsr 15 in
  Uint256.of_limbs (Limbs.add (Array.sub prod 24 8) [| round |])

(* Representatives above n/2 stand for negative values. *)
let half_n =
  Uint256.of_hex
    "7fffffffffffffffffffffffffffffff5d576e7357a4501ddfe92f46681b20a0"

let signed k =
  if Uint256.compare k half_n > 0 then (true, neg k) else (false, k)

let split_lambda k =
  let c1 = mul_shift_384 k g1 and c2 = mul_shift_384 k g2 in
  let k2 = add (mul c1 minus_b1) (mul c2 minus_b2) in
  let k1 = add k (neg (mul k2 lambda)) in
  (signed k1, signed k2)

let comb_columns ~teeth k =
  let l = limbs k and spacing = 256 / teeth in
  Array.init spacing (fun j ->
      let c = ref 0 in
      for t = teeth - 1 downto 0 do
        let pos = j + (t * spacing) in
        c := (!c lsl 1) lor ((l.(pos lsr 4) lsr (pos land 15)) land 1)
      done;
      !c)

(* [cnt] <= 16 bits of 16-limb [l] from bit [pos]; zero past bit 255. *)
let get_bits l pos cnt =
  let i = pos lsr 4 in
  let lo = if i < 16 then l.(i) else 0 in
  let v = lo lor if i + 1 < 16 then l.(i + 1) lsl 16 else 0 in
  (v lsr (pos land 15)) land ((1 lsl cnt) - 1)

let windows ~width k =
  let l = limbs k in
  Array.init ((256 + width - 1) / width) (fun w -> get_bits l (w * width) width)

(* Width-[w] NAF, libsecp256k1's scan: skip bits equal to the pending
   carry, otherwise take the next [w] bits plus the carry as one odd
   digit in (-2^(w-1), 2^(w-1)) and carry out when it is negative. One
   position past the top bit absorbs the final carry. *)
let wnaf ~w k =
  let l = limbs k in
  let len = Uint256.num_bits k + 1 in
  let digits = Array.make len 0 in
  let carry = ref 0 and bit = ref 0 in
  while !bit < len do
    if get_bits l !bit 1 = !carry then incr bit
    else begin
      let now = min w (len - !bit) in
      let word = get_bits l !bit now + !carry in
      carry := (word lsr (w - 1)) land 1;
      digits.(!bit) <- word - (!carry lsl w);
      bit := !bit + now
    end
  done;
  digits
