let shift_mul c poly k =
  (* c * x^k * poly *)
  if c = 0 || Poly.is_zero poly then Poly.zero
  else begin
    let d = Poly.degree poly in
    let out = Array.make (d + k + 1) 0 in
    for i = 0 to d do
      out.(i + k) <- Gf2m.mul c (Poly.coeff poly i)
    done;
    Poly.of_coeffs (Array.to_list out)
  end

let run s =
  let n = Array.length s in
  let c = ref Poly.one and b = ref Poly.one in
  let l = ref 0 and m = ref 1 and bd = ref 1 in
  for i = 0 to n - 1 do
    (* discrepancy: s_i + sum_{j=1..L} c_j s_{i-j} (char 2: + is xor) *)
    let delta = ref s.(i) in
    for j = 1 to !l do
      delta := !delta lxor Gf2m.mul (Poly.coeff !c j) s.(i - j)
    done;
    if !delta = 0 then incr m
    else if 2 * !l <= i then begin
      let t = !c in
      let coef = Gf2m.div !delta !bd in
      c := Poly.add !c (shift_mul coef !b !m);
      l := i + 1 - !l;
      b := t;
      bd := !delta;
      m := 1
    end
    else begin
      let coef = Gf2m.div !delta !bd in
      c := Poly.add !c (shift_mul coef !b !m);
      incr m
    end
  done;
  (!c, !l)
