(* GF(2^32) reduced by x^32 + x^7 + x^3 + x^2 + 1, libminisketch's field
   for 32-bit elements. *)

let mask = 0xFFFF_FFFF

(* One fold of the part above degree 32 through the low modulus terms
   x^7 + x^3 + x^2 + 1. A value of degree <= 62 leaves a high part of
   degree <= 30 + 7 - 32 = 5 after one fold, and a second fold lands
   below degree 32. *)
let[@inline] fold q =
  let hi = q lsr 32 in
  (q land mask) lxor hi lxor (hi lsl 2) lxor (hi lsl 3) lxor (hi lsl 7)

(* Reduce a carryless product (degree <= 62, so it fits a native int, as
   does an xor of products) modulo the field polynomial. *)
let[@inline] reduce q =
  let r = fold q in
  if r lsr 32 = 0 then r else fold r

(* 16-entry window table for [mul], per-domain so concurrent simulation
   domains never race on it. *)
let scratch_key = Domain.DLS.new_key (fun () -> Array.make 16 0)

(* Carryless multiplication with a 4-bit window, then reduction. With
   a, b < 2^32 the raw product has degree <= 62 and fits a 63-bit int. *)
let mul a b =
  if a = 0 || b = 0 then 0
  else begin
    let tab = Domain.DLS.get scratch_key in
    tab.(1) <- a;
    tab.(2) <- a lsl 1;
    tab.(3) <- tab.(2) lxor a;
    tab.(4) <- a lsl 2;
    tab.(5) <- tab.(4) lxor a;
    tab.(6) <- tab.(4) lxor tab.(2);
    tab.(7) <- tab.(6) lxor a;
    tab.(8) <- a lsl 3;
    tab.(9) <- tab.(8) lxor a;
    tab.(10) <- tab.(8) lxor tab.(2);
    tab.(11) <- tab.(10) lxor a;
    tab.(12) <- tab.(8) lxor tab.(4);
    tab.(13) <- tab.(12) lxor a;
    tab.(14) <- tab.(12) lxor tab.(2);
    tab.(15) <- tab.(14) lxor a;
    (* Top nibble of [b] is handled unshifted so no intermediate exceeds
       degree 62. *)
    let p = ref tab.((b lsr 28) land 0xF) in
    for i = 6 downto 0 do
      p := (!p lsl 4) lxor tab.((b lsr (4 * i)) land 0xF)
    done;
    reduce !p
  end

(* The 8-bit window table of [b]: [tab.(i)] is the carryless product
   of [i] and [b], unreduced. Built once per fixed factor, it turns each
   multiplication by [b] into four lookups. *)
let fill_window tab b =
  if Array.length tab < 256 then invalid_arg "Gf2m.fill_window: table";
  Array.unsafe_set tab 0 0;
  Array.unsafe_set tab 1 b;
  for i = 1 to 127 do
    let d = Array.unsafe_get tab i lsl 1 in
    Array.unsafe_set tab (2 * i) d;
    Array.unsafe_set tab ((2 * i) + 1) (d lxor b)
  done

(* The unreduced carryless product of [a] and the factor of [tab]: four
   byte-wide windows. Degrees stay within a 63-bit int: the factor
   contributes <= 31, the window <= 7, and the three 8-bit shifts
   another 24, for a top degree of 62. *)
let[@inline] window_product tab a =
  let p = Array.unsafe_get tab ((a lsr 24) land 0xFF) in
  let p = (p lsl 8) lxor Array.unsafe_get tab ((a lsr 16) land 0xFF) in
  let p = (p lsl 8) lxor Array.unsafe_get tab ((a lsr 8) land 0xFF) in
  (p lsl 8) lxor Array.unsafe_get tab (a land 0xFF)

(* dst.(off + j) <- dst.(off + j) xor b * src.(j), unreduced, for
   j < len: the inner loop of polynomial division and of the trace
   sums, with the product inlined. *)
let accum_window tab src dst ~off ~len =
  if
    Array.length tab < 256 || off < 0
    || len > Array.length src
    || off + len > Array.length dst
  then invalid_arg "Gf2m.accum_window";
  for j = 0 to len - 1 do
    let p = window_product tab (Array.unsafe_get src j) in
    Array.unsafe_set dst (off + j) (Array.unsafe_get dst (off + j) lxor p)
  done

(* The syndrome-accumulation kernel: s.(i) <- s.(i) xor base * step^i
   for i in [0, n). The window table of [step], the reduction, and the
   running power all live in one loop body, so there is no call per
   multiplication. On the ingest hot path this runs once per
   transaction with n = sketch capacity, which makes the
   per-multiplication constant the single largest term in
   commit-append cost. *)
let accum_powers ~base ~step s ~n =
  if n > Array.length s then invalid_arg "Gf2m.accum_powers: n";
  if n > 0 && base <> 0 then begin
    if step = 0 then s.(0) <- s.(0) lxor base
    else if n < 16 then begin
      (* Too short to amortise the window table; plain multiplies. *)
      let p = ref base in
      for i = 0 to n - 1 do
        Array.unsafe_set s i (Array.unsafe_get s i lxor !p);
        if i < n - 1 then p := mul !p step
      done
    end
    else begin
      let tab = Array.make 256 0 in
      fill_window tab step;
      let p = ref base in
      for i = 0 to n - 1 do
        Array.unsafe_set s i (Array.unsafe_get s i lxor !p);
        (* base <> 0 and step <> 0, so every power is nonzero: no
           zero-operand branch needed. *)
        if i < n - 1 then p := reduce (window_product tab !p)
      done
    end
  end

(* Two accumulations in one pass: s.(i) <- s.(i) xor b1*s1^i xor
   b2*s2^i. The two Horner chains are data-independent, so an
   out-of-order core overlaps their multiply latencies, and the
   syndrome array is traversed once instead of twice. Short runs and
   zero operands fall back to two single walks. *)
let accum_powers2 ~base1 ~step1 ~base2 ~step2 s ~n =
  if n >= 16 && base1 <> 0 && base2 <> 0 && step1 <> 0 && step2 <> 0 then begin
    if n > Array.length s then invalid_arg "Gf2m.accum_powers2: n";
    let tab1 = Array.make 256 0 and tab2 = Array.make 256 0 in
    fill_window tab1 step1;
    fill_window tab2 step2;
    let p1 = ref base1 and p2 = ref base2 in
    for i = 0 to n - 1 do
      Array.unsafe_set s i (Array.unsafe_get s i lxor !p1 lxor !p2);
      if i < n - 1 then begin
        let q1 = window_product tab1 !p1 and q2 = window_product tab2 !p2 in
        p1 := reduce q1;
        p2 := reduce q2
      end
    done
  end
  else begin
    accum_powers ~base:base1 ~step:step1 s ~n;
    accum_powers ~base:base2 ~step:step2 s ~n
  end

(* Squaring = spreading each bit to the even positions; an 8-bit spread
   table does it in four lookups. *)
let spread8 =
  Array.init 256 (fun b ->
      let v = ref 0 in
      for i = 0 to 7 do
        if b lsr i land 1 = 1 then v := !v lor (1 lsl (2 * i))
      done;
      !v)

(* Bits 48..62 of the square come from bits 24..31 of [a]; bit 31 lands
   on position 62, still inside a native int. *)
let sq a =
  reduce
    (spread8.(a land 0xFF)
    lor (spread8.((a lsr 8) land 0xFF) lsl 16)
    lor (spread8.((a lsr 16) land 0xFF) lsl 32)
    lor (spread8.((a lsr 24) land 0xFF) lsl 48))

(* a^(2^k) *)
let rec sq_times a k = if k = 0 then a else sq_times (sq a) (k - 1)

(* Itoh–Tsujii inversion: a^-1 = a^(2^32 - 2) = (a^(2^31 - 1))^2. With
   b_k = a^(2^k - 1), b_(j+k) = b_j^(2^k) * b_k, and the chain
   1, 2, 3, 6, 7, 14, 15, 30, 31 reaches b_31 in 8 multiplications; the
   rest are 31 squarings, a few table lookups each, against the 62
   multiplications of square-and-multiply. *)
let inv a =
  if a = 0 then raise Division_by_zero;
  let b2 = mul (sq a) a in
  let b3 = mul (sq b2) a in
  let b6 = mul (sq_times b3 3) b3 in
  let b7 = mul (sq b6) a in
  let b14 = mul (sq_times b7 7) b7 in
  let b15 = mul (sq b14) a in
  let b30 = mul (sq_times b15 15) b15 in
  let b31 = mul (sq b30) a in
  sq b31

let div a b = mul a (inv b)
