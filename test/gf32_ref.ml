(* The reference arithmetic for GF(2^32) modulo x^32 + x^7 + x^3 + x^2 + 1:
   bit-serial shift-and-xor, one bit of a factor per step, with no
   window table, no lazy reduction and no addition chain. It shares no
   code with [Gf2m], which is what makes it an oracle for the library's
   windowed multiplier, its two-fold reduction and its fused kernels. *)

(* x^32 + x^7 + x^3 + x^2 + 1, the degree-32 term included. *)
let modulus = (1 lsl 32) lor 0x8D
let mask = (1 lsl 32) - 1

(* Horner over the bits of [b], top first: double the accumulator
   (reducing as soon as it reaches degree 32), then add [a] if the bit
   is set. *)
let mul a b =
  let acc = ref 0 in
  for i = 31 downto 0 do
    acc := !acc lsl 1;
    if (!acc lsr 32) land 1 = 1 then acc := !acc lxor modulus;
    if (b lsr i) land 1 = 1 then acc := !acc lxor a
  done;
  !acc

(* Reduce any 63-bit pattern, read as a polynomial of degree <= 62, by
   long division: clear each bit from 62 down to 32 with a shifted
   copy of the modulus. *)
let reduce q =
  let q = ref q in
  for i = 62 downto 32 do
    if (!q lsr i) land 1 = 1 then q := !q lxor (modulus lsl (i - 32))
  done;
  !q

let pow a k =
  let r = ref 1 in
  for i = 62 downto 0 do
    r := mul !r !r;
    if (k lsr i) land 1 = 1 then r := mul !r a
  done;
  !r

(* a^(2^32 - 2), the inverse of a nonzero a by Fermat. *)
let inv a = if a = 0 then raise Division_by_zero else pow a (mask - 1)
let div a b = mul a (inv b)

(* Tr(a) = a + a^2 + a^4 + ... + a^(2^31), in {0, 1}. *)
let trace a =
  let acc = ref 0 and cur = ref a in
  for _ = 1 to 32 do
    acc := !acc lxor !cur;
    cur := mul !cur !cur
  done;
  !acc

(* s.(i) <- s.(i) xor base * step^i for i < n, one product at a time. *)
let accum_powers ~base ~step s ~n =
  let p = ref base in
  for i = 0 to n - 1 do
    s.(i) <- s.(i) lxor !p;
    p := mul !p step
  done

(* Rabin's test for x^32 + low: the polynomial is irreducible iff
   x^(2^32) = x modulo it and gcd(x^(2^16) - x, it) = 1, 2 being the
   only prime that divides 32. Powers of x are elements here (x is 2),
   and the gcd is over GF(2)[x] on plain ints. *)
let is_irreducible () =
  let frobenius k =
    let x = ref 2 in
    for _ = 1 to k do
      x := mul !x !x
    done;
    !x
  in
  let degree v =
    let rec go d = if v lsr (d + 1) = 0 then d else go (d + 1) in
    if v = 0 then -1 else go 0
  in
  let rec gcd a b =
    if b = 0 then a
    else begin
      let a = ref a and db = degree b in
      while degree !a >= db do
        a := !a lxor (b lsl (degree !a - db))
      done;
      gcd b !a
    end
  in
  frobenius 32 = 2 && gcd modulus (frobenius 16 lxor 2) = 1
