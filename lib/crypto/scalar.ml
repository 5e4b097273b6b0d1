(* 256-bit naturals as sixteen little-endian 16-bit limbs, and their
   arithmetic mod the secp256k1 group order n. A column of 16-bit limb
   products stays far inside OCaml's 63-bit ints.

   n = 2^256 - c with c below 2^129, so a product reduces by folding:
   t = hi 2^256 + lo = hi c + lo (mod n). Each fold shrinks t by about
   127 bits; after at most four of them t is below 2^256 < 2n and one
   conditional subtraction finishes — no bit-serial division. *)

type t = int array

let of_int v =
  if v < 0 then invalid_arg "Scalar.of_int: negative";
  Array.init 16 (fun i -> if i < 4 then (v lsr (16 * i)) land 0xFFFF else 0)

let of_bytes_be s =
  if String.length s <> 32 then invalid_arg "Scalar.of_bytes_be: need 32 bytes";
  Array.init 16 (fun i ->
      (Char.code s.[30 - (2 * i)] lsl 8) lor Char.code s.[31 - (2 * i)])

let to_bytes_be a =
  String.init 32 (fun j ->
      let l = a.((31 - j) / 2) in
      Char.chr (if j land 1 = 0 then l lsr 8 else l land 0xFF))

let of_hex h =
  of_bytes_be (Hex.decode (String.make (64 - String.length h) '0' ^ h))

let compare a b =
  let rec go i =
    if i < 0 then 0
    else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
    else go (i - 1)
  in
  go 15

let is_zero a = Array.for_all (fun l -> l = 0) a
let bit a i = i < 256 && (a.(i lsr 4) lsr (i land 15)) land 1 = 1

let num_bits a =
  let rec top i = if i < 0 || a.(i) <> 0 then i else top (i - 1) in
  let rec width v w = if v lsr w = 0 then w else width v (w + 1) in
  match top 15 with -1 -> 0 | i -> (16 * i) + width a.(i) 1

(* Carry columns of any size, negative ones included, into 16-bit limbs
   in place; returns the carry out of the top limb (-1: a borrow). *)
let carry t =
  let c = ref 0 in
  for i = 0 to Array.length t - 1 do
    let v = t.(i) + !c in
    t.(i) <- v land 0xFFFF;
    c := v asr 16
  done;
  !c

(* a - b mod 2^256. *)
let wrap_sub a b =
  let r = Array.init 16 (fun i -> a.(i) - b.(i)) in
  ignore (carry r);
  r

(* The full 512-bit product. *)
let mul_wide a b =
  let t = Array.make 32 0 in
  for i = 0 to 15 do
    let ai = a.(i) in
    if ai <> 0 then
      for j = 0 to 15 do
        t.(i + j) <- t.(i + j) + (ai * b.(j))
      done
  done;
  ignore (carry t);
  t

let n =
  of_hex "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"

(* 2^256 - n, 129 bits: nine limbs. *)
let c = Array.sub (of_hex "14551231950b75fc4402da1732fc9bebf") 0 9

(* [t] (16-bit limbs, at least 16 of them) mod n. *)
let rec reduce_wide t =
  let len = Array.length t in
  let rec high_zero i = i >= len || (t.(i) = 0 && high_zero (i + 1)) in
  if high_zero 16 then begin
    let r = Array.sub t 0 16 in
    if compare r n >= 0 then wrap_sub r n else r
  end
  else begin
    let out = Array.make (max 16 (len - 7) + 1) 0 in
    Array.blit t 0 out 0 16;
    for i = 16 to len - 1 do
      for j = 0 to 8 do
        out.(i - 16 + j) <- out.(i - 16 + j) + (t.(i) * c.(j))
      done
    done;
    ignore (carry out);
    reduce_wide out
  end

let reduce a = reduce_wide a
let mul a b = reduce_wide (mul_wide a b)

let add a b =
  let s = Array.init 16 (fun i -> a.(i) + b.(i)) in
  if carry s > 0 || compare s n >= 0 then wrap_sub s n else s

let neg a = if is_zero a then a else wrap_sub n a

(* --- The GLV endomorphism: lambda * (x, y) = (beta x, y), with
   lambda^3 = 1 (mod n) and beta^3 = 1 (mod p). Splitting
   k = k1 + lambda k2 with |k1|, |k2| of about 128 bits halves the
   doubling chain of a variable-base multiplication. The lattice basis
   and the rounding constants g1 = round(2^384 b2 / n) and
   g2 = round(2^384 (-b1) / n) are libsecp256k1's. --- *)

let lambda =
  of_hex "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72"

let minus_b1 = of_hex "e4437ed6010e88286f547fa90abfe4c3"

let minus_b2 =
  of_hex "fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c"

let g1 =
  of_hex "3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031"

let g2 =
  of_hex "e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71"

(* round(k g / 2^384): limbs 24.. of the product, plus bit 383. *)
let mul_shift_384 k g =
  let prod = mul_wide k g in
  let r = Array.init 16 (fun i -> if i < 8 then prod.(24 + i) else 0) in
  r.(0) <- r.(0) + (prod.(23) lsr 15);
  ignore (carry r);
  r

(* Representatives above n/2 stand for negative values. *)
let half_n =
  of_hex "7fffffffffffffffffffffffffffffff5d576e7357a4501ddfe92f46681b20a0"

let signed k = if compare k half_n > 0 then (true, neg k) else (false, k)

let split_lambda k =
  let c1 = mul_shift_384 k g1 and c2 = mul_shift_384 k g2 in
  let k2 = add (mul c1 minus_b1) (mul c2 minus_b2) in
  let k1 = add k (neg (mul k2 lambda)) in
  (signed k1, signed k2)

let comb_columns ~teeth k =
  let spacing = 256 / teeth in
  Array.init spacing (fun j ->
      let c = ref 0 in
      for t = teeth - 1 downto 0 do
        let pos = j + (t * spacing) in
        c := (!c lsl 1) lor ((k.(pos lsr 4) lsr (pos land 15)) land 1)
      done;
      !c)

(* [cnt] <= 16 bits of [k] from bit [pos]; zero past bit 255. *)
let get_bits k pos cnt =
  let i = pos lsr 4 in
  let lo = if i < 16 then k.(i) else 0 in
  let v = lo lor if i + 1 < 16 then k.(i + 1) lsl 16 else 0 in
  (v lsr (pos land 15)) land ((1 lsl cnt) - 1)

let windows ~width k =
  Array.init ((256 + width - 1) / width) (fun w -> get_bits k (w * width) width)

(* Width-[w] NAF, libsecp256k1's scan: skip bits equal to the pending
   carry, otherwise take the next [w] bits plus the carry as one odd
   digit in (-2^(w-1), 2^(w-1)) and carry out when it is negative. One
   position past the top bit absorbs the final carry. *)
let wnaf ~w k =
  let len = num_bits k + 1 in
  let digits = Array.make len 0 in
  let carry = ref 0 and bit = ref 0 in
  while !bit < len do
    if get_bits k !bit 1 = !carry then incr bit
    else begin
      let now = min w (len - !bit) in
      let word = get_bits k !bit now + !carry in
      carry := (word lsr (w - 1)) land 1;
      digits.(!bit) <- word - (!carry lsl w);
      bit := !bit + now
    end
  done;
  digits
