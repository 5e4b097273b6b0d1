(* The reference arithmetic for secp256k1, sharing no code with the
   library. A natural is an [int array] of little-endian 16-bit limbs;
   the exported ones ([t]) have exactly 16, and meet [Fe] and [Scalar]
   through their 32-byte encodings.

   The field mod p is the 16-bit-limb arithmetic the curve code ran on
   before the ten-limb [Fe]: schoolbook products reduced by folding
   t = hi 2^256 + lo = hi (2^32 + 977) + lo (mod p) until the value
   fits, then subtracting p. Any other modulus (n, and small primes
   that pin this code in turn) gets binary long division, one bit of
   the dividend at a time. Slow and allocation-heavy, and simple enough
   to read at a glance — which is what an oracle is for. *)

type t = int array

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

let equal a b = compare a b = 0

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

(* Exactly 16 limbs; the value must fit. *)
let fit a =
  if compare a (Array.make 16 limb_mask) > 0 then
    invalid_arg "Field_ref.fit: above 2^256";
  Array.init 16 (fun i -> if i < Array.length a then a.(i) else 0)

let of_int v =
  fit (Array.init 4 (fun i -> (v lsr (limb_bits * i)) land limb_mask))

let zero = of_int 0
let one = of_int 1

let of_bytes_be s =
  if String.length s <> 32 then
    invalid_arg "Field_ref.of_bytes_be: need 32 bytes";
  Array.init 16 (fun i ->
      (Char.code s.[30 - (2 * i)] lsl 8) lor Char.code s.[31 - (2 * i)])

let to_bytes_be a =
  String.init 32 (fun j ->
      let l = a.((31 - j) / 2) in
      Char.chr (if j land 1 = 0 then l lsr 8 else l land 0xFF))

(* From up to 64 hex digits, left-padded with 0. *)
let of_hex h =
  let len = String.length h in
  if len > 64 then invalid_arg "Field_ref.of_hex: too long";
  let digit pos =
    if pos < 0 then 0 else int_of_string ("0x" ^ String.make 1 h.[pos])
  in
  Array.init 16 (fun i ->
      let v = ref 0 in
      for k = 3 downto 0 do
        v := (!v lsl 4) lor digit (len - 1 - ((4 * i) + k))
      done;
      !v)

let to_hex a =
  String.concat "" (List.rev_map (Printf.sprintf "%04x") (Array.to_list a))

let pp fmt a = Format.pp_print_string fmt (to_hex a)

let bit a i =
  let limb = i / limb_bits in
  limb < Array.length a && (a.(limb) lsr (i mod limb_bits)) land 1 = 1

let num_bits a =
  let rec go i = if i < 0 || bit a i then i + 1 else go (i - 1) in
  go ((limb_bits * Array.length a) - 1)

let p =
  of_hex "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"

let n =
  of_hex "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"

(* --- Mod p --- *)

let c_limbs = [| 0x03D1; 0x0000; 0x0001 |] (* 2^32 + 977 *)

let rec reduce t =
  let len = Array.length t in
  let hi = if len > 16 then Array.sub t 16 (len - 16) else [||] in
  if not (is_zero hi) then reduce (add (mul hi c_limbs) (Array.sub t 0 16))
  else begin
    let t = ref (Array.sub t 0 (min 16 len)) in
    while compare !t p >= 0 do
      t := sub !t p
    done;
    fit !t
  end

let canon a = reduce a
let fmul a b = reduce (mul a b)
let fsqr a = fmul a a

(* Both canonical, so the sum is below 2p: one fold of its carry limb
   and one subtraction at most. *)
let fadd a b = reduce (add (canon a) (canon b))

let fneg a =
  let a = canon a in
  if is_zero a then a else fit (sub p a)

let fsub a b = fadd a (fneg b)

let fpow b e =
  let result = ref one and acc = ref (canon b) in
  for i = 0 to num_bits e - 1 do
    if bit e i then result := fmul !result !acc;
    acc := fsqr !acc
  done;
  !result

(* Fermat: a^(p-2). *)
let finv a = fpow a (sub p [| 2 |])

(* p = 3 (mod 4): a^((p+1)/4) is a root when one exists. *)
let fsqrt a =
  let e =
    of_hex "3fffffffffffffffffffffffffffffffffffffffffffffffffffffffbfffff0c"
  in
  let r = fpow a e in
  if equal (fsqr r) (canon a) then Some r else None

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

(* --- Any modulus --- *)

(* a mod b: r stays below b, so 2r + 1 fits [length b + 1] limbs. *)
let rem a b =
  if is_zero b then invalid_arg "Field_ref.rem: division by zero";
  let nb = Array.length b in
  let r = ref (Array.make (nb + 1) 0) in
  for i = (limb_bits * Array.length a) - 1 downto 0 do
    let t = add (add !r !r) [| Bool.to_int (bit a i) |] in
    let t = Array.sub t 0 (nb + 1) in
    r := if compare t b >= 0 then sub t b else t
  done;
  fit !r

let mod_reduce ~modulus a = rem a modulus
let mod_mul ~modulus a b = rem (mul a b) modulus
let mod_add ~modulus a b = rem (add a b) modulus

(* a - b = a + (m - b mod m) (mod m). *)
let mod_sub ~modulus a b = mod_add ~modulus a (sub modulus (rem b modulus))

let mod_pow ~modulus b e =
  let result = ref (mod_reduce ~modulus one)
  and acc = ref (mod_reduce ~modulus b) in
  for i = 0 to num_bits e - 1 do
    if bit e i then result := mod_mul ~modulus !result !acc;
    acc := mod_mul ~modulus !acc !acc
  done;
  !result

(* Fermat: a^(m-2) for a prime m. *)
let mod_inv_prime ~modulus a =
  if is_zero a then invalid_arg "Field_ref.mod_inv_prime: zero";
  mod_pow ~modulus a (sub modulus [| 2 |])

(* a + b modulo 2^256: the carry limb is dropped. *)
let wrap_add a b = Array.sub (add a b) 0 16
