type t = {
  m : int;
  full : int;
  mask : int;
  mod_shifts : int array; (* set-bit positions of the low modulus terms *)
  scratch_key : int array Domain.DLS.key;
      (* 256-entry window table for the generic multiplier, per-domain so
         concurrent simulation domains never race on it *)
  log_tbl : int array; (* size 2^m; log_tbl.(0) = -1; [||] when untabled *)
  exp_tbl : int array; (* size 2*(2^m-1); doubled to skip the mod *)
}

(* Fields up to this size get full log/antilog tables (2^16 entries is
   ~1.5 MiB for both tables together); larger fields fall back to the
   windowed carryless multiplier. *)
let table_max_m = 16

let bits f = f.m
let mask f = f.mask
let order_minus_one f = f.mask
let add a b = a lxor b
let tabled f = Array.length f.log_tbl <> 0

(* Reduce a carryless product (degree <= 2m-2 <= 62, so it fits a native
   int) modulo x^m + modulus: fold the high part down through the sparse
   low terms until everything is below degree m. *)
let reduce f p =
  let shifts = f.mod_shifts in
  let ns = Array.length shifts in
  let p = ref p in
  while !p lsr f.m <> 0 do
    let hi = !p lsr f.m in
    let folded = ref (!p land f.mask) in
    for i = 0 to ns - 1 do
      folded := !folded lxor (hi lsl Array.unsafe_get shifts i)
    done;
    p := !folded
  done;
  !p

(* Carryless multiplication with a 4-bit window, then reduction. With
   a, b < 2^32 the raw product has degree <= 62 and fits a 63-bit int.
   This is the reference path: it never consults the log/antilog
   tables, so the table-based [mul] can be checked against it. *)
let mul_generic f a b =
  if a = 0 || b = 0 then 0
  else begin
    let tab = Domain.DLS.get f.scratch_key in
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
    reduce f !p
  end

let mul f a b =
  if Array.length f.log_tbl = 0 then mul_generic f a b
  else if a = 0 || b = 0 then 0
  else
    Array.unsafe_get f.exp_tbl
      (Array.unsafe_get f.log_tbl a + Array.unsafe_get f.log_tbl b)

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

(* dst.(off + j) <- dst.(off + j) xor b * src.(j), unreduced, for
   j < len: the inner loop of polynomial division and of the trace
   sums, with the product inlined. a < 2^m <= 2^32 takes four
   byte-wide windows; degrees stay within a 63-bit int: b contributes
   <= 31, the window <= 7, and the three 8-bit shifts another 24, for a
   top degree of 62. *)
let accum_window tab src dst ~off ~len =
  if
    Array.length tab < 256 || off < 0
    || len > Array.length src
    || off + len > Array.length dst
  then invalid_arg "Gf2m.accum_window";
  for j = 0 to len - 1 do
    let a = Array.unsafe_get src j in
    let p = Array.unsafe_get tab ((a lsr 24) land 0xFF) in
    let p = (p lsl 8) lxor Array.unsafe_get tab ((a lsr 16) land 0xFF) in
    let p = (p lsl 8) lxor Array.unsafe_get tab ((a lsr 8) land 0xFF) in
    let p = (p lsl 8) lxor Array.unsafe_get tab (a land 0xFF) in
    Array.unsafe_set dst (off + j) (Array.unsafe_get dst (off + j) lxor p)
  done

(* The syndrome-accumulation kernel: s.(i) <- s.(i) xor base * step^i
   for i in [0, n). The window table of [step], the reduction, and the
   running power all live in one loop body, so there is no call per
   multiplication. On the
   ingest hot path this runs once per transaction with n = sketch
   capacity, which makes the per-multiplication constant the single
   largest term in commit-append cost. *)
let accum_powers f ~base ~step s ~n =
  if n > Array.length s then invalid_arg "Gf2m.accum_powers: n";
  if n > 0 && base <> 0 then begin
    if step = 0 then s.(0) <- s.(0) lxor base
    else if Array.length f.log_tbl <> 0 then begin
      let log_tbl = f.log_tbl and exp_tbl = f.exp_tbl in
      let log_step = Array.unsafe_get log_tbl step in
      let p = ref base in
      for i = 0 to n - 1 do
        Array.unsafe_set s i (Array.unsafe_get s i lxor !p);
        if i < n - 1 then
          p :=
            Array.unsafe_get exp_tbl (Array.unsafe_get log_tbl !p + log_step)
      done
    end
    else if n < 16 then begin
      (* Too short to amortise the window table; plain multiplies. *)
      let p = ref base in
      for i = 0 to n - 1 do
        Array.unsafe_set s i (Array.unsafe_get s i lxor !p);
        if i < n - 1 then p := mul_generic f !p step
      done
    end
    else begin
      let tab = Array.make 256 0 in
      fill_window tab step;
      let m = f.m and msk = f.mask in
      let shifts = f.mod_shifts in
      let ns = Array.length shifts in
      let max_shift = Array.fold_left max 0 shifts in
      let fold q =
        let hi = q lsr m in
        let folded = ref (q land msk) in
        for j = 0 to ns - 1 do
          folded := !folded lxor (hi lsl Array.unsafe_get shifts j)
        done;
        !folded
      in
      if (2 * max_shift) - 2 < m then begin
        (* Sparse low-degree modulus (every built-in field qualifies):
           the first fold leaves a high part of degree <= max_shift - 2,
           so a second fold always lands below degree m. Two unrolled
           folds replace the reduction loop's per-round test. *)
        let p = ref base in
        for i = 0 to n - 1 do
          Array.unsafe_set s i (Array.unsafe_get s i lxor !p);
          if i < n - 1 then begin
            (* base <> 0 and step <> 0, so every power is nonzero: no
               zero-operand branch needed. Same degree argument as
               [accum_window]: the raw product stays within 63 bits. *)
            let a = !p in
            let q = ref (Array.unsafe_get tab ((a lsr 24) land 0xFF)) in
            q := (!q lsl 8) lxor Array.unsafe_get tab ((a lsr 16) land 0xFF);
            q := (!q lsl 8) lxor Array.unsafe_get tab ((a lsr 8) land 0xFF);
            q := (!q lsl 8) lxor Array.unsafe_get tab (a land 0xFF);
            let q1 = fold !q in
            p := if q1 lsr m = 0 then q1 else fold q1
          end
        done
      end
      else begin
        let p = ref base in
        for i = 0 to n - 1 do
          Array.unsafe_set s i (Array.unsafe_get s i lxor !p);
          if i < n - 1 then begin
            let a = !p in
            let q = ref (Array.unsafe_get tab ((a lsr 24) land 0xFF)) in
            q := (!q lsl 8) lxor Array.unsafe_get tab ((a lsr 16) land 0xFF);
            q := (!q lsl 8) lxor Array.unsafe_get tab ((a lsr 8) land 0xFF);
            q := (!q lsl 8) lxor Array.unsafe_get tab (a land 0xFF);
            while !q lsr m <> 0 do
              q := fold !q
            done;
            p := !q
          end
        done
      end
    end
  end

(* Two accumulations in one pass: s.(i) <- s.(i) xor b1*s1^i xor
   b2*s2^i. The two Horner chains are data-independent, so an
   out-of-order core overlaps their multiply latencies, and the
   syndrome array is traversed once instead of twice. Only the untabled
   large-field case is specialised — it is the one the tx-id sketches
   (GF(2^32), capacity 250) sit on; everything else falls back to two
   single walks. *)
let accum_powers2 f ~base1 ~step1 ~base2 ~step2 s ~n =
  if
    n >= 16 && base1 <> 0 && base2 <> 0 && step1 <> 0 && step2 <> 0
    && Array.length f.log_tbl = 0
    && (2 * Array.fold_left max 0 f.mod_shifts) - 2 < f.m
  then begin
    if n > Array.length s then invalid_arg "Gf2m.accum_powers2: n";
    let tab1 = Array.make 256 0 and tab2 = Array.make 256 0 in
    fill_window tab1 step1;
    fill_window tab2 step2;
    let m = f.m and msk = f.mask in
    let shifts = f.mod_shifts in
    let ns = Array.length shifts in
    let fold q =
      let hi = q lsr m in
      let folded = ref (q land msk) in
      for j = 0 to ns - 1 do
        folded := !folded lxor (hi lsl Array.unsafe_get shifts j)
      done;
      !folded
    in
    let p1 = ref base1 and p2 = ref base2 in
    for i = 0 to n - 1 do
      Array.unsafe_set s i (Array.unsafe_get s i lxor !p1 lxor !p2);
      if i < n - 1 then begin
        let a1 = !p1 and a2 = !p2 in
        let q1 = ref (Array.unsafe_get tab1 ((a1 lsr 24) land 0xFF))
        and q2 = ref (Array.unsafe_get tab2 ((a2 lsr 24) land 0xFF)) in
        q1 := (!q1 lsl 8) lxor Array.unsafe_get tab1 ((a1 lsr 16) land 0xFF);
        q2 := (!q2 lsl 8) lxor Array.unsafe_get tab2 ((a2 lsr 16) land 0xFF);
        q1 := (!q1 lsl 8) lxor Array.unsafe_get tab1 ((a1 lsr 8) land 0xFF);
        q2 := (!q2 lsl 8) lxor Array.unsafe_get tab2 ((a2 lsr 8) land 0xFF);
        q1 := (!q1 lsl 8) lxor Array.unsafe_get tab1 (a1 land 0xFF);
        q2 := (!q2 lsl 8) lxor Array.unsafe_get tab2 (a2 land 0xFF);
        let r1 = fold !q1 and r2 = fold !q2 in
        p1 := (if r1 lsr m = 0 then r1 else fold r1);
        p2 := (if r2 lsr m = 0 then r2 else fold r2)
      end
    done
  end
  else begin
    accum_powers f ~base:base1 ~step:step1 s ~n;
    accum_powers f ~base:base2 ~step:step2 s ~n
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

let sq_generic f a =
  let p =
    spread8.(a land 0xFF)
    lor (spread8.((a lsr 8) land 0xFF) lsl 16)
    lor (spread8.((a lsr 16) land 0xFF) lsl 32)
  in
  let hi = (a lsr 24) land 0xFF in
  if hi = 0 then reduce f p
  else begin
    (* Bits 48..62 of the square come from bits 24..31 of [a]; bit 31
       would land on position 62, still inside a native int. *)
    let p_hi = spread8.(hi) in
    reduce f (p lor (p_hi lsl 48))
  end

let sq f a =
  if Array.length f.log_tbl = 0 then sq_generic f a
  else if a = 0 then 0
  else Array.unsafe_get f.exp_tbl (2 * Array.unsafe_get f.log_tbl a)

let pow f a k =
  if k < 0 then invalid_arg "Gf2m.pow: negative exponent";
  let r = ref 1 and base = ref a and k = ref k in
  while !k <> 0 do
    if !k land 1 = 1 then r := mul f !r !base;
    base := sq f !base;
    k := !k lsr 1
  done;
  !r

(* Itoh–Tsujii inversion: a^-1 = a^(2^m - 2) = (a^(2^(m-1) - 1))^2.
   With b_k = a^(2^k - 1), b_(j+k) = b_j^(2^k) * b_k, so walking the
   bits of m - 1 from the top builds b_(m-1) in about 2 log2(m)
   multiplications; the rest are squarings, which are a few table
   lookups each. For GF(2^32) that is 8 multiplications and 31
   squarings, against the 62 multiplications of square-and-multiply. *)
let inv_itoh_tsujii f a =
  let e = f.m - 1 in
  let top = ref 0 in
  while e lsr (!top + 1) <> 0 do
    incr top
  done;
  (* b = a^(2^k - 1), with k the bits of e above position [i]. *)
  let b = ref a and k = ref 1 in
  for i = !top - 1 downto 0 do
    let x = ref !b in
    for _ = 1 to !k do
      x := sq_generic f !x
    done;
    b := mul_generic f !x !b;
    k := 2 * !k;
    if (e lsr i) land 1 = 1 then begin
      b := mul_generic f (sq_generic f !b) a;
      incr k
    end
  done;
  sq_generic f !b

let inv f a =
  if a = 0 then raise Division_by_zero;
  if Array.length f.log_tbl = 0 then inv_itoh_tsujii f a
  else f.exp_tbl.(f.mask - f.log_tbl.(a))

let div f a b =
  if Array.length f.log_tbl = 0 then mul f a (inv f b)
  else if b = 0 then raise Division_by_zero
  else if a = 0 then 0
  else f.exp_tbl.((f.log_tbl.(a) - f.log_tbl.(b)) + f.mask)

let trace f a =
  let acc = ref 0 and cur = ref a in
  for _ = 1 to f.m do
    acc := !acc lxor !cur;
    cur := sq f !cur
  done;
  !acc

(* Irreducibility check for x^m + modulus over GF(2): f is irreducible
   iff x^(2^m) = x (mod f) and gcd(x^(2^(m/p)) - x, f) = 1 for every
   prime p dividing m. We work in the quotient ring via this very field
   representation, which is sound for the Frobenius computations even
   before irreducibility is established. *)
let frobenius_iterate f times =
  (* x^(2^times) in the quotient ring, starting from the element x = 2. *)
  let cur = ref 2 in
  for _ = 1 to times do
    cur := sq_generic f !cur
  done;
  !cur

let prime_divisors m =
  let rec go m p acc =
    if p * p > m then if m > 1 then m :: acc else acc
    else if m mod p = 0 then
      let rec strip m = if m mod p = 0 then strip (m / p) else m in
      go (strip m) (p + 1) (p :: acc)
    else go m (p + 1) acc
  in
  go m 2 []

(* gcd(poly represented by [a] (an element = low-degree poly), f) where f
   is the reduction polynomial of full degree m. Polynomial gcd over
   GF(2) on plain ints. *)
let gcd_with_modulus f a =
  let deg v =
    let rec go d = if v lsr d = 0 then d - 1 else go (d + 1) in
    if v = 0 then -1 else go 1
  in
  let rec gcd a b =
    if b = 0 then a
    else begin
      (* a mod b by long division over GF(2) *)
      let db = deg b in
      let a = ref a in
      while deg !a >= db do
        a := !a lxor (b lsl (deg !a - db))
      done;
      gcd b !a
    end
  in
  gcd f.full a

let is_irreducible f =
  frobenius_iterate f f.m = 2
  && List.for_all
       (fun p ->
         let x_frob = frobenius_iterate f (f.m / p) in
         gcd_with_modulus f (x_frob lxor 2) = 1)
       (prime_divisors f.m)

(* Log/antilog tables: find a multiplicative generator (the group is
   cyclic of order 2^m - 1 once irreducibility holds, so any element of
   full order works; small candidates almost always do) and record its
   discrete logs. The antilog table is doubled so [mul] needs no
   modular reduction on the summed logs. *)
let build_tables f =
  let order = f.mask in
  let log_tbl = Array.make (f.mask + 1) (-1) in
  let exp_tbl = Array.make (2 * order) 1 in
  let rec try_generator g =
    if g > f.mask then failwith "Gf2m: no generator found (unreachable)"
    else begin
      Array.fill log_tbl 0 (Array.length log_tbl) (-1);
      let e = ref 1 in
      let ok = ref true in
      (let i = ref 0 in
       while !ok && !i < order do
         if log_tbl.(!e) >= 0 then ok := false (* short cycle: not primitive *)
         else begin
           log_tbl.(!e) <- !i;
           exp_tbl.(!i) <- !e;
           e := mul_generic f !e g;
           incr i
         end
       done);
      if !ok && !e = 1 then ()
      else try_generator (g + 1)
    end
  in
  try_generator 2;
  (* Double the antilog table: indices up to 2*(order-1) come from mul,
     and [div] can reach index 2*order - 1. *)
  for i = 0 to order - 1 do
    exp_tbl.(order + i) <- exp_tbl.(i)
  done;
  (log_tbl, exp_tbl)

let make ~m ~modulus =
  if m < 2 || m > 32 then invalid_arg "Gf2m.make: m out of [2,32]";
  if modulus land 1 = 0 then invalid_arg "Gf2m.make: modulus must have constant term";
  if modulus lsr m <> 0 then invalid_arg "Gf2m.make: modulus degree too high";
  let mod_shifts =
    List.filter (fun s -> modulus lsr s land 1 = 1) (List.init m Fun.id)
    |> Array.of_list
  in
  let f =
    {
      m;
      full = (1 lsl m) lor modulus;
      mask = (1 lsl m) - 1;
      mod_shifts;
      scratch_key = Domain.DLS.new_key (fun () -> Array.make 256 0);
      log_tbl = [||];
      exp_tbl = [||];
    }
  in
  if not (is_irreducible f) then invalid_arg "Gf2m.make: reducible polynomial";
  if m <= table_max_m then begin
    let log_tbl, exp_tbl = build_tables f in
    { f with log_tbl; exp_tbl }
  end
  else f

let gf8 = make ~m:8 ~modulus:0x1B
let gf16 = make ~m:16 ~modulus:0x2B
let gf32 = make ~m:32 ~modulus:0x8D
