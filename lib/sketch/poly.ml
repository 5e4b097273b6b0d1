type t = int array

let zero : t = [||]
let one : t = [| 1 |]

let normalize a =
  let n = Array.length a in
  let rec top i = if i >= 0 && a.(i) = 0 then top (i - 1) else i in
  let d = top (n - 1) in
  if d = n - 1 then a else Array.sub a 0 (d + 1)

let of_coeffs cs = normalize (Array.of_list cs)
let degree a = Array.length a - 1
let is_zero a = Array.length a = 0
let equal (a : t) (b : t) = a = b
let coeff a i = if i < Array.length a then a.(i) else 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  normalize (Array.init (max la lb) (fun i -> coeff a i lxor coeff b i))

(* Below this many products per fixed factor, plain multiplications
   are used instead of a 256-entry window table. Measured over GF(2^32)
   (DESIGN.md section 15): below 8 products the table costs more than it
   saves ([roots] of degree 2-6 takes 1.5-2.2x as long with the window
   path everywhere); between 8 and 16 the window path wins in isolation,
   but a threshold of 8 left sim-fig6's wall time unchanged and raised
   its peak RSS, so the threshold stays at 16. *)
let window_min = 16

(* The degree of the field, GF(2^32): the length of a Frobenius cycle
   and of a trace sum. *)
let m = 32

let scale c a =
  if c = 0 then zero else normalize (Array.map (fun x -> Gf2m.mul c x) a)

let mul a b =
  if is_zero a || is_zero b then zero
  else begin
    let out = Array.make (degree a + degree b + 1) 0 in
    Array.iteri
      (fun i ai ->
        if ai <> 0 then
          Array.iteri
            (fun j bj -> out.(i + j) <- out.(i + j) lxor Gf2m.mul ai bj)
            b)
      a;
    normalize out
  end

(* [a] truncated to its first [n] coefficients, normalised. *)
let normalize_prefix a n =
  let rec top i = if i >= 0 && a.(i) = 0 then top (i - 1) else i in
  Array.sub a 0 (top (n - 1) + 1)

(* Long division of [r] (length > degree b) by [b], in place: afterwards
   r.(0 .. degree b - 1) hold the remainder. The quotient is written to
   [q] unless [q] is empty.

   Past [window_min], each quotient coefficient gets one 8-bit window
   table, so its degree-b products cost four lookups each, and they are
   xored into [r] unreduced: a coefficient of [r] is reduced once, when
   the division reaches it or at the end, instead of once per product. *)
let long_div r b q =
  let db = degree b and da = Array.length r - 1 in
  let lead = b.(db) in
  let lead_inv = if lead = 1 then 1 else Gf2m.inv lead in
  let want_q = Array.length q > 0 in
  if db < window_min then begin
    for i = da downto db do
      let c = r.(i) in
      if c <> 0 then begin
        let factor = if lead_inv = 1 then c else Gf2m.mul c lead_inv in
        if want_q then q.(i - db) <- factor;
        let off = i - db in
        for j = 0 to db - 1 do
          r.(off + j) <- r.(off + j) lxor Gf2m.mul factor b.(j)
        done;
        r.(i) <- 0
      end
    done
  end
  else begin
    let tab = Array.make 256 0 in
    for i = da downto db do
      let c = Gf2m.reduce r.(i) in
      if c <> 0 then begin
        let factor = if lead_inv = 1 then c else Gf2m.mul c lead_inv in
        if want_q then q.(i - db) <- factor;
        Gf2m.fill_window tab factor;
        Gf2m.accum_window tab b r ~off:(i - db) ~len:db
      end;
      r.(i) <- 0
    done;
    for j = 0 to db - 1 do
      r.(j) <- Gf2m.reduce r.(j)
    done
  end

let divmod a b =
  if is_zero b then raise Division_by_zero;
  let da = degree a and db = degree b in
  if da < db then (zero, normalize (Array.copy a))
  else begin
    let r = Array.copy a and q = Array.make (da - db + 1) 0 in
    long_div r b q;
    (normalize q, normalize_prefix r db)
  end

(* [rem] on an array the caller hands over: divided in place. *)
let rem_owned r b =
  if is_zero b then raise Division_by_zero;
  let db = degree b in
  if degree r < db then normalize r
  else begin
    long_div r b [||];
    normalize_prefix r db
  end

let rem a b = rem_owned (Array.copy a) b

let monic a =
  if is_zero a then a
  else
    let lead = a.(degree a) in
    if lead = 1 then a else scale (Gf2m.inv lead) a

let rec gcd a b = if is_zero b then monic a else gcd b (rem a b)

let square_mod a ~modulus =
  if is_zero a then zero
  else begin
    let out = Array.make ((2 * degree a) + 1) 0 in
    Array.iteri (fun i ai -> out.(2 * i) <- Gf2m.sq ai) a;
    rem_owned out modulus
  end

(* --- Root finding ---

   The roots of a fully split squarefree p are separated by gcds with
   trace polynomials: for each beta, Tr(beta x) = sum_(k<m) (beta
   x)^(2^k) takes only the values 0 and 1 on the roots, so gcd(p,
   Tr(beta x) mod p) usually splits p. The Frobenius table of p,
   X_k = x^(2^k) mod p for k = 0..m, makes each trial cheap: squaring
   mod p is a ring map, so (beta x)^(2^k) mod p = beta^(2^k) X_k and

     Tr(beta x) mod p = sum_(k<m) beta^(2^k) X_k,

   m scalar-times-vector passes instead of m modular squarings. The
   table also gives the split-completely test for free (X_m = X_0), and
   a factor g of p can inherit its table by reduction (X_k mod g). The
   trace polynomial is the same polynomial either way, so every gcd,
   every split and the order of the returned roots are unchanged. *)

(* X_0 .. X_(len - 1) of [p] by repeated squaring: about m (deg p)^2
   products. *)
let frobenius_table p ~len =
  let tbl = Array.make len zero in
  tbl.(0) <- rem [| 0; 1 |] p;
  for k = 1 to len - 1 do
    tbl.(k) <- square_mod tbl.(k - 1) ~modulus:p
  done;
  tbl

(* Tr(beta x) mod p from p's table, [d] = degree p. *)
let trace_of_table tbl ~beta ~d =
  let acc = Array.make d 0 in
  let b = ref beta in
  if d < window_min then
    for k = 0 to m - 1 do
      let bk = !b in
      if bk <> 0 then
        Array.iteri (fun i x -> acc.(i) <- acc.(i) lxor Gf2m.mul bk x) tbl.(k);
      b := Gf2m.sq bk
    done
  else begin
    let tab = Array.make 256 0 in
    for k = 0 to m - 1 do
      let xk = tbl.(k) in
      Gf2m.fill_window tab !b;
      Gf2m.accum_window tab xk acc ~off:0 ~len:(Array.length xk);
      b := Gf2m.sq !b
    done;
    for i = 0 to d - 1 do
      acc.(i) <- Gf2m.reduce acc.(i)
    done
  end;
  normalize acc

let roots p =
  if is_zero p then None
  else begin
    let exception Split_failure in
    (* The table of a factor [c] of [p]. Reducing p's entries costs
       about m (deg p - deg c) deg c products, squaring afresh about
       m (deg c)^2: the larger factor reduces, the smaller squares.
       Linear factors need no table. *)
    let table_of p tbl c =
      let dc = degree c in
      if dc < 2 then [||]
      else if degree p - dc < dc then Array.init m (fun k -> rem tbl.(k) c)
      else frobenius_table c ~len:m
    in
    (* [find p tbl next_beta acc] accumulates the roots of monic
       squarefree [p], whose Frobenius table is [tbl]. *)
    let rec find p tbl next_beta acc =
      match degree p with
      | 0 -> acc
      | 1 ->
          (* monic: x + c, root c *)
          p.(0) :: acc
      | d ->
          let rec split beta tries =
            if tries > m + 64 then raise Split_failure
            else begin
              (* Only gcd(p, t) is worth trying. X_m = X_0 means p
                 divides x^(2^m) - x, the product of (x - a) over the
                 whole field, and every factor inherits that; so p is
                 monic, squarefree and fully split, p = prod (x - a)
                 over its d distinct roots. t takes only the values 0
                 and 1 on them, so gcd(p, t) is the product over the
                 roots where t is 0 and gcd(p, t + 1) the product over
                 the rest: their degrees add up to d, one is 0 exactly
                 when the other is d, and t + 1 splits p exactly when t
                 does. *)
              let t = trace_of_table tbl ~beta ~d in
              let g = gcd p t in
              let dg = degree g in
              if dg > 0 && dg < d then g
              else split (Gf2m.mul beta 2 lxor 1) (tries + 1)
            end
          in
          let g = split next_beta 0 in
          let h, r = divmod p g in
          assert (is_zero r);
          let g = monic g and h = monic h in
          let acc =
            find g (table_of p tbl g) (Gf2m.mul next_beta 3 lxor 5) acc
          in
          find h (table_of p tbl h) (Gf2m.mul next_beta 3 lxor 7) acc
    in
    let p = monic p in
    if degree p = 0 then Some []
    else begin
      let tbl = frobenius_table p ~len:(m + 1) in
      if not (equal tbl.(m) tbl.(0)) then None
      else
        match find p tbl 1 [] with
        | roots -> Some roots
        | exception Split_failure -> None
    end
  end
