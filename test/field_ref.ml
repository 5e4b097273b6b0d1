(* The reference field for secp256k1: the 16-bit-limb arithmetic the
   curve code ran on before the ten-limb [Fe]. Products are schoolbook
   over 16-bit limbs, reduced by folding t = hi 2^256 + lo = hi (2^32 +
   977) + lo (mod p) until the value fits, then subtracting p. Slow and
   allocation-heavy, and simple enough to read at a glance — which is
   what an oracle is for. *)

open Lo_crypto

let limb_bits = 16
let limb_mask = 0xFFFF

let is_zero a = Array.for_all (fun x -> x = 0) a

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i < 0 then 0
    else
      let xa = if i < la then a.(i) else 0 in
      let xb = if i < lb then b.(i) else 0 in
      if xa <> xb then Stdlib.compare xa xb else go (i - 1)
  in
  go (max la lb - 1)

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  out.(n) <- !carry;
  out

(* a - b for a >= b, [length a] limbs. *)
let sub a b =
  let lb = Array.length b in
  let borrow = ref 0 in
  Array.mapi
    (fun i x ->
      let d = x - (if i < lb then b.(i) else 0) - !borrow in
      borrow := if d < 0 then 1 else 0;
      d land limb_mask)
    a

let mul a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb + 1) 0 in
  for i = 0 to la - 1 do
    let carry = ref 0 in
    for j = 0 to lb - 1 do
      let t = out.(i + j) + (a.(i) * b.(j)) + !carry in
      out.(i + j) <- t land limb_mask;
      carry := t lsr limb_bits
    done;
    let k = ref (i + lb) in
    while !carry <> 0 do
      let t = out.(!k) + !carry in
      out.(!k) <- t land limb_mask;
      carry := t lsr limb_bits;
      incr k
    done
  done;
  out

let p = Secp256k1.p
let p_limbs = Uint256.to_limbs p
let c_limbs = [| 0x03D1; 0x0000; 0x0001 |] (* 2^32 + 977 *)

let rec reduce t =
  let len = Array.length t in
  let hi = if len > 16 then Array.sub t 16 (len - 16) else [||] in
  if not (is_zero hi) then reduce (add (mul hi c_limbs) (Array.sub t 0 16))
  else begin
    let t = ref (Array.sub t 0 (min 16 len)) in
    while compare !t p_limbs >= 0 do
      t := sub !t p_limbs
    done;
    Uint256.of_limbs !t
  end

let canon a = reduce (Uint256.to_limbs a)
let fmul a b = reduce (mul (Uint256.to_limbs a) (Uint256.to_limbs b))
let fsqr a = fmul a a

(* Both canonical, so the sum is below 2p: one fold of its carry limb
   and one subtraction at most. *)
let fadd a b =
  reduce (add (Uint256.to_limbs (canon a)) (Uint256.to_limbs (canon b)))

let fneg a =
  let a = canon a in
  if Uint256.is_zero a then a
  else Uint256.of_limbs (sub p_limbs (Uint256.to_limbs a))

let fsub a b = fadd a (fneg b)

let fpow b e =
  let result = ref Uint256.one and acc = ref (canon b) in
  for i = 0 to Uint256.num_bits e - 1 do
    if Uint256.bit e i then result := fmul !result !acc;
    acc := fsqr !acc
  done;
  !result

(* Fermat: a^(p-2). *)
let finv a = fpow a (Uint256.of_limbs (sub p_limbs [| 2 |]))

(* p = 3 (mod 4): a^((p+1)/4) is a root when one exists. *)
let fsqrt a =
  let e =
    Uint256.of_hex
      "3fffffffffffffffffffffffffffffffffffffffffffffffffffffffbfffff0c"
  in
  let r = fpow a e in
  if Uint256.equal (fsqr r) (canon a) then Some r else None

(* The value, mod p, of ten raw limbs at 26-bit positions, whatever
   their sizes: Horner over 2^26 = [0; 0x400] in 16-bit limbs. *)
let of_limbs26 limbs =
  let acc = ref [| 0 |] in
  for i = 9 downto 0 do
    let l = limbs.(i) in
    let l16 = Array.init 4 (fun k -> (l lsr (16 * k)) land limb_mask) in
    acc := add (mul !acc [| 0; 0x400 |]) l16
  done;
  reduce !acc
