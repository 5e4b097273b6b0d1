(* The reference polynomial kernel for PinSketch root finding: the
   trace-splitting search the decoder ran on before the Frobenius
   table. Every product is a plain [Gf2m.mul], every division goes
   through a square-and-multiply inverse, and each trial trace
   Tr(beta x) mod p is rebuilt from m fresh modular squarings. Slow, and
   simple enough to read at a glance — which is what an oracle is for.
   [Poly.roots] must return exactly what [roots] returns here, root
   order included. [eval] and [mul_mod] are here too: only tests use
   them, so the library does not carry them. *)

open Lo_sketch

let normalize a =
  let n = Array.length a in
  let rec top i = if i >= 0 && a.(i) = 0 then top (i - 1) else i in
  let d = top (n - 1) in
  if d = n - 1 then a else Array.sub a 0 (d + 1)

let degree a = Array.length a - 1
let is_zero a = Array.length a = 0
let coeff a i = if i < Array.length a then a.(i) else 0
let inv a = Gf32_ref.pow a (Gf2m.mask - 1)

let add a b =
  let la = Array.length a and lb = Array.length b in
  normalize (Array.init (max la lb) (fun i -> coeff a i lxor coeff b i))

let divmod a b =
  if is_zero b then raise Division_by_zero;
  let db = degree b in
  let lead_inv = inv b.(db) in
  let r = Array.copy a in
  let da = degree a in
  if da < db then ([||], normalize r)
  else begin
    let q = Array.make (da - db + 1) 0 in
    for i = da downto db do
      if r.(i) <> 0 then begin
        let factor = Gf2m.mul r.(i) lead_inv in
        q.(i - db) <- factor;
        for j = 0 to db do
          r.(i - db + j) <- r.(i - db + j) lxor Gf2m.mul factor b.(j)
        done
      end
    done;
    (normalize q, normalize r)
  end

let rem a b = snd (divmod a b)

(* Horner's rule. *)
let eval a x =
  let acc = ref 0 in
  for i = degree a downto 0 do
    acc := Gf2m.mul !acc x lxor a.(i)
  done;
  !acc

let mul_mod a b ~modulus =
  let out = Array.make (max 0 (degree a + degree b + 1)) 0 in
  Array.iteri
    (fun i ai ->
      Array.iteri (fun j bj -> out.(i + j) <- out.(i + j) lxor Gf2m.mul ai bj) b)
    a;
  rem (normalize out) modulus

let monic a =
  if is_zero a then a
  else
    let lead = a.(degree a) in
    if lead = 1 then a
    else
      let c = inv lead in
      normalize (Array.map (fun x -> Gf2m.mul c x) a)

let rec gcd a b = if is_zero b then monic a else gcd b (rem a b)

let square_mod a ~modulus =
  if is_zero a then [||]
  else begin
    let out = Array.make ((2 * degree a) + 1) 0 in
    Array.iteri (fun i ai -> out.(2 * i) <- Gf2m.sq ai) a;
    rem (normalize out) modulus
  end

(* x^(2^m) = x (mod p): p is a product of distinct linear factors. *)
let frobenius_fixed p =
  if degree p < 1 then false
  else begin
    let x = rem [| 0; 1 |] p in
    let cur = ref x in
    for _ = 1 to 32 do
      cur := square_mod !cur ~modulus:p
    done;
    !cur = x
  end

let trace_mod ~beta ~modulus =
  let bx = rem [| 0; beta |] modulus in
  let acc = ref bx and cur = ref bx in
  for _ = 2 to 32 do
    cur := square_mod !cur ~modulus;
    acc := add !acc !cur
  done;
  !acc

let roots p =
  if is_zero p then None
  else begin
    let exception Split_failure in
    let rec find p next_beta acc =
      match degree p with
      | 0 -> acc
      | 1 -> p.(0) :: acc
      | _ ->
          let rec split beta tries =
            if tries > 32 + 64 then raise Split_failure
            else begin
              let t = trace_mod ~beta ~modulus:p in
              let g = gcd p t in
              let dg = degree g in
              if dg > 0 && dg < degree p then g
              else
                let g' = gcd p (add t [| 1 |]) in
                let dg' = degree g' in
                if dg' > 0 && dg' < degree p then g'
                else split (Gf2m.mul beta 2 lxor 1) (tries + 1)
            end
          in
          let g = split next_beta 0 in
          let h, r = divmod p g in
          assert (is_zero r);
          let acc = find (monic g) (Gf2m.mul next_beta 3 lxor 5) acc in
          find (monic h) (Gf2m.mul next_beta 3 lxor 7) acc
    in
    let p = monic p in
    if not (frobenius_fixed p) then if degree p = 0 then Some [] else None
    else
      match find p 1 [] with
      | roots -> Some roots
      | exception Split_failure -> None
  end
