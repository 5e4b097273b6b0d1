(* Elements of F_p, p = 2^256 - 2^32 - 977, as ten 26-bit limbs (the
   field_10x26 layout of libsecp256k1): value = sum a.(i) * 2^(26 i),
   limbs 0..8 nominally 26 bits wide and limb 9 nominally 22 bits.

   Reduction is lazy. A value's magnitude m bounds its limbs:
   a.(i) <= 2m (2^26 - 1) for i < 9 and a.(9) <= 2m (2^22 - 1). [mul]
   and [sqr] accept magnitude <= 4: every limb is then below 2^29, a
   limb product below 2^58, and a column of ten products below 2^61.4,
   inside OCaml's 63-bit signed int. Their results, and those of [sub]
   and [normalize_weak], have magnitude 1. [add], [mul_int] and [neg]
   never carry, so their results' magnitudes add up; callers keep them
   within the bound. Only [normalize] yields the canonical limbs of a
   value in [0, p). *)

type t = int array

let m26 = 0x3FFFFFF
let m22 = 0x3FFFFF

(* p's limbs. 2^256 = 2^32 + 977 (mod p); with 2^32 = 2^6 * 2^26 the
   excess above bit 256 folds in as x * 0x3D1 at limb 0 and x * 0x40 at
   limb 1, and a column at 2^260 = 2^4 * 2^256 as 0x3D10 at its own
   position and 0x400 one limb up. *)
let p0 = 0x3FFFC2F
let p1 = 0x3FFFFBF

(* Built from a non-constant so the compiler allocates it inline on the
   minor heap instead of copying a static block through a C call. *)
let create () =
  let z = Sys.opaque_identity 0 in
  [| z; z; z; z; z; z; z; z; z; z |]

let of_int k =
  if k < 0 || k > m26 then invalid_arg "Fe.of_int: out of range";
  let r = create () in
  r.(0) <- k;
  r

let copy = Array.copy
let set r a = Array.blit a 0 r 0 10
let limbs = Array.copy

let of_limbs a =
  if Array.length a <> 10 then invalid_arg "Fe.of_limbs: need 10 limbs";
  Array.copy a

let add r a b =
  for i = 0 to 9 do
    Array.unsafe_set r i (Array.unsafe_get a i + Array.unsafe_get b i)
  done

let mul_int r a k =
  for i = 0 to 9 do
    Array.unsafe_set r i (Array.unsafe_get a i * k)
  done

(* [neg r a m]: r = 2(m+1) p - a for [a] of magnitude <= m; magnitude
   m + 1. *)
let neg r a m =
  let k = 2 * (m + 1) in
  r.(0) <- (k * p0) - a.(0);
  r.(1) <- (k * p1) - a.(1);
  for i = 2 to 8 do
    Array.unsafe_set r i ((k * m26) - Array.unsafe_get a i)
  done;
  r.(9) <- (k * m22) - a.(9)

(* One carry pass plus a fold of the bits above 2^256: limbs 0..8 end
   below 2^26 and limb 9 at most a few units above 2^22 - 1, so the
   value is below 2^256 + 2^241 < 2p. *)
let normalize_weak r =
  let t9 = r.(9) in
  let x = t9 lsr 22 in
  let t0 = r.(0) + (x * 0x3D1) in
  let t1 = r.(1) + (x lsl 6) + (t0 lsr 26) in
  let t2 = r.(2) + (t1 lsr 26) in
  let t3 = r.(3) + (t2 lsr 26) in
  let t4 = r.(4) + (t3 lsr 26) in
  let t5 = r.(5) + (t4 lsr 26) in
  let t6 = r.(6) + (t5 lsr 26) in
  let t7 = r.(7) + (t6 lsr 26) in
  let t8 = r.(8) + (t7 lsr 26) in
  r.(0) <- t0 land m26;
  r.(1) <- t1 land m26;
  r.(2) <- t2 land m26;
  r.(3) <- t3 land m26;
  r.(4) <- t4 land m26;
  r.(5) <- t5 land m26;
  r.(6) <- t6 land m26;
  r.(7) <- t7 land m26;
  r.(8) <- t8 land m26;
  r.(9) <- (t9 land m22) + (t8 lsr 26)

(* [sub r a b] for [b] of magnitude <= 8: a + 18p - b, weakly
   normalised, so magnitude 1. *)
let sub r a b =
  r.(0) <- a.(0) + (18 * p0) - b.(0);
  r.(1) <- a.(1) + (18 * p1) - b.(1);
  for i = 2 to 8 do
    Array.unsafe_set r i
      (Array.unsafe_get a i + (18 * m26) - Array.unsafe_get b i)
  done;
  r.(9) <- a.(9) + (18 * m22) - b.(9);
  normalize_weak r

let ge_p r =
  r.(9) = m22
  && r.(8) land r.(7) land r.(6) land r.(5) land r.(4) land r.(3) land r.(2)
     = m26
  && (r.(1) > p1 || (r.(1) = p1 && r.(0) >= p0))

(* Canonical limbs of the value in [0, p). After the first weak pass
   the value is below 2^256 + 2^241; a second pass (only when limb 9
   still overflows) leaves it below 2^256, and one conditional
   subtraction of p finishes. *)
let normalize r =
  normalize_weak r;
  if r.(9) lsr 22 <> 0 then normalize_weak r;
  if ge_p r then begin
    (* r - p = r + (2^32 + 977) - 2^256 *)
    let t0 = r.(0) + 0x3D1 in
    let t1 = r.(1) + 0x40 + (t0 lsr 26) in
    r.(0) <- t0 land m26;
    r.(1) <- t1 land m26;
    let c = ref (t1 lsr 26) in
    for i = 2 to 8 do
      let t = r.(i) + !c in
      r.(i) <- t land m26;
      c := t lsr 26
    done;
    r.(9) <- (r.(9) + !c) land m22
  end

(* Whether the non-negative limbs t0..t9 spell 0 mod p: the carry pass
   of [normalize_weak], in locals. It leaves a value below 2p whose
   limbs 0..8 are their low 26 bits, so the value is 0 mod p exactly
   when those limbs spell 0 or p. [is_zero] and [equal] run on every
   point addition and every x-check, so they allocate nothing. *)
let[@inline] zero_limbs t0 t1 t2 t3 t4 t5 t6 t7 t8 t9 =
  let x = t9 lsr 22 in
  let t0 = t0 + (x * 0x3D1) in
  let t1 = t1 + (x lsl 6) + (t0 lsr 26) in
  let t2 = t2 + (t1 lsr 26) in
  let t3 = t3 + (t2 lsr 26) in
  let t4 = t4 + (t3 lsr 26) in
  let t5 = t5 + (t4 lsr 26) in
  let t6 = t6 + (t5 lsr 26) in
  let t7 = t7 + (t6 lsr 26) in
  let t8 = t8 + (t7 lsr 26) in
  let t9 = (t9 land m22) + (t8 lsr 26) in
  let t0 = t0 land m26 and t1 = t1 land m26 in
  let any = (t2 lor t3 lor t4 lor t5 lor t6 lor t7 lor t8) land m26 in
  let all = t2 land t3 land t4 land t5 land t6 land t7 land t8 land m26 in
  t0 lor t1 lor any lor t9 = 0
  || (t0 = p0 && t1 = p1 && all = m26 && t9 = m22)

(* Whether [a] (magnitude <= 8) is 0 mod p. *)
let is_zero a =
  zero_limbs a.(0) a.(1) a.(2) a.(3) a.(4) a.(5) a.(6) a.(7) a.(8) a.(9)

(* a - b as [sub] forms it (a + 18p - b), tested without the carry
   being written back. *)
let equal a b =
  zero_limbs
    (a.(0) + (18 * p0) - b.(0))
    (a.(1) + (18 * p1) - b.(1))
    (a.(2) + (18 * m26) - b.(2))
    (a.(3) + (18 * m26) - b.(3))
    (a.(4) + (18 * m26) - b.(4))
    (a.(5) + (18 * m26) - b.(5))
    (a.(6) + (18 * m26) - b.(6))
    (a.(7) + (18 * m26) - b.(7))
    (a.(8) + (18 * m26) - b.(8))
    (a.(9) + (18 * m22) - b.(9))

(* [a] must be normalised. *)
let is_odd a = a.(0) land 1 = 1

let[@inline] ( .%() ) (a : int array) i = Array.unsafe_get a i

(* Product columns, reduced to magnitude 1 as they are produced. Column
   10 + k (weight 2^(260 + 26k)) is carried into a 26-bit limb h, which
   folds into limb k as h * 0x3D10 and into limb k + 1 as h * 0x400;
   the carry out of column 18 is h19. Every column is below 2^61.4 for
   operands of magnitude <= 4, and each fold adds under 2^41. The bits
   of limb 9 above 22, plus h19's share at 2^260, fold once more at
   977 / 2^6, and two carries leave limb 2 below 2^26 + 2^22. The
   operands are read to the end, so [r] is written last and may alias
   either. *)
let mul r a b =
  if Array.length a < 10 || Array.length b < 10 || Array.length r < 10 then
    invalid_arg "Fe.mul";
  let h = (a.%(1) * b.%(9)) + (a.%(2) * b.%(8)) + (a.%(3) * b.%(7))
    + (a.%(4) * b.%(6)) + (a.%(5) * b.%(5)) + (a.%(6) * b.%(4))
    + (a.%(7) * b.%(3)) + (a.%(8) * b.%(2)) + (a.%(9) * b.%(1)) in
  let h10 = h land m26 and ch = h lsr 26 in
  let u = (a.%(0) * b.%(0)) + (h10 * 0x3D10) in
  let r0 = u land m26 and cl = u lsr 26 in
  let h = (a.%(2) * b.%(9)) + (a.%(3) * b.%(8)) + (a.%(4) * b.%(7))
    + (a.%(5) * b.%(6)) + (a.%(6) * b.%(5)) + (a.%(7) * b.%(4))
    + (a.%(8) * b.%(3)) + (a.%(9) * b.%(2)) + ch in
  let h11 = h land m26 and ch = h lsr 26 in
  let u = (a.%(0) * b.%(1)) + (a.%(1) * b.%(0)) + (h11 * 0x3D10)
    + (h10 * 0x400) + cl in
  let r1 = u land m26 and cl = u lsr 26 in
  let h = (a.%(3) * b.%(9)) + (a.%(4) * b.%(8)) + (a.%(5) * b.%(7))
    + (a.%(6) * b.%(6)) + (a.%(7) * b.%(5)) + (a.%(8) * b.%(4))
    + (a.%(9) * b.%(3)) + ch in
  let h12 = h land m26 and ch = h lsr 26 in
  let u = (a.%(0) * b.%(2)) + (a.%(1) * b.%(1)) + (a.%(2) * b.%(0))
    + (h12 * 0x3D10) + (h11 * 0x400) + cl in
  let r2 = u land m26 and cl = u lsr 26 in
  let h = (a.%(4) * b.%(9)) + (a.%(5) * b.%(8)) + (a.%(6) * b.%(7))
    + (a.%(7) * b.%(6)) + (a.%(8) * b.%(5)) + (a.%(9) * b.%(4)) + ch in
  let h13 = h land m26 and ch = h lsr 26 in
  let u = (a.%(0) * b.%(3)) + (a.%(1) * b.%(2)) + (a.%(2) * b.%(1))
    + (a.%(3) * b.%(0)) + (h13 * 0x3D10) + (h12 * 0x400) + cl in
  let r3 = u land m26 and cl = u lsr 26 in
  let h = (a.%(5) * b.%(9)) + (a.%(6) * b.%(8)) + (a.%(7) * b.%(7))
    + (a.%(8) * b.%(6)) + (a.%(9) * b.%(5)) + ch in
  let h14 = h land m26 and ch = h lsr 26 in
  let u = (a.%(0) * b.%(4)) + (a.%(1) * b.%(3)) + (a.%(2) * b.%(2))
    + (a.%(3) * b.%(1)) + (a.%(4) * b.%(0)) + (h14 * 0x3D10) + (h13 * 0x400)
    + cl in
  let r4 = u land m26 and cl = u lsr 26 in
  let h = (a.%(6) * b.%(9)) + (a.%(7) * b.%(8)) + (a.%(8) * b.%(7))
    + (a.%(9) * b.%(6)) + ch in
  let h15 = h land m26 and ch = h lsr 26 in
  let u = (a.%(0) * b.%(5)) + (a.%(1) * b.%(4)) + (a.%(2) * b.%(3))
    + (a.%(3) * b.%(2)) + (a.%(4) * b.%(1)) + (a.%(5) * b.%(0))
    + (h15 * 0x3D10) + (h14 * 0x400) + cl in
  let r5 = u land m26 and cl = u lsr 26 in
  let h = (a.%(7) * b.%(9)) + (a.%(8) * b.%(8)) + (a.%(9) * b.%(7)) + ch in
  let h16 = h land m26 and ch = h lsr 26 in
  let u = (a.%(0) * b.%(6)) + (a.%(1) * b.%(5)) + (a.%(2) * b.%(4))
    + (a.%(3) * b.%(3)) + (a.%(4) * b.%(2)) + (a.%(5) * b.%(1))
    + (a.%(6) * b.%(0)) + (h16 * 0x3D10) + (h15 * 0x400) + cl in
  let r6 = u land m26 and cl = u lsr 26 in
  let h = (a.%(8) * b.%(9)) + (a.%(9) * b.%(8)) + ch in
  let h17 = h land m26 and ch = h lsr 26 in
  let u = (a.%(0) * b.%(7)) + (a.%(1) * b.%(6)) + (a.%(2) * b.%(5))
    + (a.%(3) * b.%(4)) + (a.%(4) * b.%(3)) + (a.%(5) * b.%(2))
    + (a.%(6) * b.%(1)) + (a.%(7) * b.%(0)) + (h17 * 0x3D10) + (h16 * 0x400)
    + cl in
  let r7 = u land m26 and cl = u lsr 26 in
  let h = (a.%(9) * b.%(9)) + ch in
  let h18 = h land m26 and ch = h lsr 26 in
  let u = (a.%(0) * b.%(8)) + (a.%(1) * b.%(7)) + (a.%(2) * b.%(6))
    + (a.%(3) * b.%(5)) + (a.%(4) * b.%(4)) + (a.%(5) * b.%(3))
    + (a.%(6) * b.%(2)) + (a.%(7) * b.%(1)) + (a.%(8) * b.%(0))
    + (h18 * 0x3D10) + (h17 * 0x400) + cl in
  let r8 = u land m26 and cl = u lsr 26 in
  let h19 = ch in
  let u = (a.%(0) * b.%(9)) + (a.%(1) * b.%(8)) + (a.%(2) * b.%(7))
    + (a.%(3) * b.%(6)) + (a.%(4) * b.%(5)) + (a.%(5) * b.%(4))
    + (a.%(6) * b.%(3)) + (a.%(7) * b.%(2)) + (a.%(8) * b.%(1))
    + (a.%(9) * b.%(0)) + (h19 * 0x3D10) + (h18 * 0x400) + cl in
  let r9 = u land m22 in
  let top = (u lsr 22) + (h19 * 0x4000) in
  let u = r0 + (top * 0x3D1) in
  let r0 = u land m26 in
  let u = r1 + (top lsl 6) + (u lsr 26) in
  Array.unsafe_set r 0 r0;
  Array.unsafe_set r 1 (u land m26);
  Array.unsafe_set r 2 (r2 + (u lsr 26));
  Array.unsafe_set r 3 r3;
  Array.unsafe_set r 4 r4;
  Array.unsafe_set r 5 r5;
  Array.unsafe_set r 6 r6;
  Array.unsafe_set r 7 r7;
  Array.unsafe_set r 8 r8;
  Array.unsafe_set r 9 r9

(* The square's cross terms appear twice: 55 products instead of 100. *)
let sqr r a =
  if Array.length a < 10 || Array.length r < 10 then invalid_arg "Fe.sqr";
  let h = (2 * a.%(1) * a.%(9)) + (2 * a.%(2) * a.%(8))
    + (2 * a.%(3) * a.%(7)) + (2 * a.%(4) * a.%(6)) + (a.%(5) * a.%(5)) in
  let h10 = h land m26 and ch = h lsr 26 in
  let u = (a.%(0) * a.%(0)) + (h10 * 0x3D10) in
  let r0 = u land m26 and cl = u lsr 26 in
  let h = (2 * a.%(2) * a.%(9)) + (2 * a.%(3) * a.%(8))
    + (2 * a.%(4) * a.%(7)) + (2 * a.%(5) * a.%(6)) + ch in
  let h11 = h land m26 and ch = h lsr 26 in
  let u = (2 * a.%(0) * a.%(1)) + (h11 * 0x3D10) + (h10 * 0x400) + cl in
  let r1 = u land m26 and cl = u lsr 26 in
  let h = (2 * a.%(3) * a.%(9)) + (2 * a.%(4) * a.%(8))
    + (2 * a.%(5) * a.%(7)) + (a.%(6) * a.%(6)) + ch in
  let h12 = h land m26 and ch = h lsr 26 in
  let u = (2 * a.%(0) * a.%(2)) + (a.%(1) * a.%(1)) + (h12 * 0x3D10)
    + (h11 * 0x400) + cl in
  let r2 = u land m26 and cl = u lsr 26 in
  let h = (2 * a.%(4) * a.%(9)) + (2 * a.%(5) * a.%(8))
    + (2 * a.%(6) * a.%(7)) + ch in
  let h13 = h land m26 and ch = h lsr 26 in
  let u = (2 * a.%(0) * a.%(3)) + (2 * a.%(1) * a.%(2)) + (h13 * 0x3D10)
    + (h12 * 0x400) + cl in
  let r3 = u land m26 and cl = u lsr 26 in
  let h = (2 * a.%(5) * a.%(9)) + (2 * a.%(6) * a.%(8)) + (a.%(7) * a.%(7))
    + ch in
  let h14 = h land m26 and ch = h lsr 26 in
  let u = (2 * a.%(0) * a.%(4)) + (2 * a.%(1) * a.%(3)) + (a.%(2) * a.%(2))
    + (h14 * 0x3D10) + (h13 * 0x400) + cl in
  let r4 = u land m26 and cl = u lsr 26 in
  let h = (2 * a.%(6) * a.%(9)) + (2 * a.%(7) * a.%(8)) + ch in
  let h15 = h land m26 and ch = h lsr 26 in
  let u = (2 * a.%(0) * a.%(5)) + (2 * a.%(1) * a.%(4))
    + (2 * a.%(2) * a.%(3)) + (h15 * 0x3D10) + (h14 * 0x400) + cl in
  let r5 = u land m26 and cl = u lsr 26 in
  let h = (2 * a.%(7) * a.%(9)) + (a.%(8) * a.%(8)) + ch in
  let h16 = h land m26 and ch = h lsr 26 in
  let u = (2 * a.%(0) * a.%(6)) + (2 * a.%(1) * a.%(5))
    + (2 * a.%(2) * a.%(4)) + (a.%(3) * a.%(3)) + (h16 * 0x3D10)
    + (h15 * 0x400) + cl in
  let r6 = u land m26 and cl = u lsr 26 in
  let h = (2 * a.%(8) * a.%(9)) + ch in
  let h17 = h land m26 and ch = h lsr 26 in
  let u = (2 * a.%(0) * a.%(7)) + (2 * a.%(1) * a.%(6))
    + (2 * a.%(2) * a.%(5)) + (2 * a.%(3) * a.%(4)) + (h17 * 0x3D10)
    + (h16 * 0x400) + cl in
  let r7 = u land m26 and cl = u lsr 26 in
  let h = (a.%(9) * a.%(9)) + ch in
  let h18 = h land m26 and ch = h lsr 26 in
  let u = (2 * a.%(0) * a.%(8)) + (2 * a.%(1) * a.%(7))
    + (2 * a.%(2) * a.%(6)) + (2 * a.%(3) * a.%(5)) + (a.%(4) * a.%(4))
    + (h18 * 0x3D10) + (h17 * 0x400) + cl in
  let r8 = u land m26 and cl = u lsr 26 in
  let h19 = ch in
  let u = (2 * a.%(0) * a.%(9)) + (2 * a.%(1) * a.%(8))
    + (2 * a.%(2) * a.%(7)) + (2 * a.%(3) * a.%(6)) + (2 * a.%(4) * a.%(5))
    + (h19 * 0x3D10) + (h18 * 0x400) + cl in
  let r9 = u land m22 in
  let top = (u lsr 22) + (h19 * 0x4000) in
  let u = r0 + (top * 0x3D1) in
  let r0 = u land m26 in
  let u = r1 + (top lsl 6) + (u lsr 26) in
  Array.unsafe_set r 0 r0;
  Array.unsafe_set r 1 (u land m26);
  Array.unsafe_set r 2 (r2 + (u lsr 26));
  Array.unsafe_set r 3 r3;
  Array.unsafe_set r 4 r4;
  Array.unsafe_set r 5 r5;
  Array.unsafe_set r 6 r6;
  Array.unsafe_set r 7 r7;
  Array.unsafe_set r 8 r8;
  Array.unsafe_set r 9 r9

let sqr_n r a k =
  sqr r a;
  for _ = 2 to k do
    sqr r r
  done

(* Shared head of the inversion and square-root addition chains
   (libsecp256k1's): x_k = a^(2^k - 1) for the block lengths the two
   exponents are built from. Returns (x2, x22, x223). *)
let chain_head a =
  let x2 = create () and x3 = create () and t = create () in
  sqr x2 a;
  mul x2 x2 a;
  sqr x3 x2;
  mul x3 x3 a;
  let x6 = create () in
  sqr_n x6 x3 3;
  mul x6 x6 x3;
  let x9 = create () in
  sqr_n x9 x6 3;
  mul x9 x9 x3;
  let x11 = create () in
  sqr_n x11 x9 2;
  mul x11 x11 x2;
  let x22 = create () in
  sqr_n x22 x11 11;
  mul x22 x22 x11;
  let x44 = create () in
  sqr_n x44 x22 22;
  mul x44 x44 x22;
  sqr_n t x44 44;
  mul t t x44;
  (* t = x88 *)
  let x176 = create () in
  sqr_n x176 t 88;
  mul x176 x176 t;
  sqr_n t x176 44;
  mul t t x44;
  (* t = x220 *)
  sqr_n t t 3;
  mul t t x3;
  (x2, x22, t)

(* a^(p-2). p - 2 is 223 ones, a zero, 22 ones, then 0000101101. *)
let inv r a =
  let x2, x22, t = chain_head a in
  sqr_n t t 23;
  mul t t x22;
  sqr_n t t 5;
  mul t t a;
  sqr_n t t 3;
  mul t t x2;
  sqr_n t t 2;
  mul r t a

(* a^((p+1)/4), a square root when one exists (p = 3 mod 4). (p+1)/4 is
   223 ones, a zero, 22 ones, then 000011 00. *)
let sqrt r a =
  let x2, x22, t = chain_head a in
  sqr_n t t 23;
  mul t t x22;
  sqr_n t t 6;
  mul t t x2;
  sqr_n t t 2;
  let c = create () in
  sqr c t;
  let ok = equal c a in
  set r t;
  ok

let of_bytes_be s =
  if String.length s <> 32 then invalid_arg "Fe.of_bytes_be: need 32 bytes";
  let r = create () in
  let acc = ref 0 and nbits = ref 0 and limb = ref 0 in
  for i = 31 downto 0 do
    acc := !acc lor (Char.code (String.unsafe_get s i) lsl !nbits);
    nbits := !nbits + 8;
    if !nbits >= 26 && !limb < 9 then begin
      r.(!limb) <- !acc land m26;
      acc := !acc lsr 26;
      nbits := !nbits - 26;
      incr limb
    end
  done;
  r.(9) <- !acc;
  r

let of_canonical_bytes s =
  let r = of_bytes_be s in
  if ge_p r then None else Some r

let to_bytes_be a =
  let a = copy a in
  normalize a;
  let out = Bytes.create 32 in
  let acc = ref 0 and nbits = ref 0 and limb = ref 0 in
  for i = 31 downto 0 do
    if !nbits < 8 then begin
      acc := !acc lor (a.(!limb) lsl !nbits);
      nbits := !nbits + if !limb < 9 then 26 else 22;
      incr limb
    end;
    Bytes.unsafe_set out i (Char.unsafe_chr (!acc land 0xFF));
    acc := !acc lsr 8;
    nbits := !nbits - 8
  done;
  Bytes.unsafe_to_string out
