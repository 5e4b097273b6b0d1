let fe_of_hex h = Fe.of_bytes_be (Hex.decode h)

let gx =
  fe_of_hex "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"

let gy =
  fe_of_hex "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"

let beta =
  fe_of_hex "7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee"

(* x^3 + 7, magnitude 2. *)
let curve_rhs x =
  let r = Fe.create () in
  Fe.sqr r x;
  Fe.mul r r x;
  Fe.add r r (Fe.of_int 7);
  r

let is_on_curve ~x ~y =
  let y2 = Fe.create () in
  Fe.sqr y2 y;
  Fe.equal y2 (curve_rhs x)

(* --- Jacobian points: (X, Y, Z) represents (X/Z^2, Y/Z^3).

   Coordinates have magnitude <= 2. The exported operations build fresh
   points and never write to their arguments, so points (including
   [infinity]) can be shared; the multiplication loops below work on a
   private accumulator in place. --- *)

type point = { x : Fe.t; y : Fe.t; z : Fe.t; mutable inf : bool }

(* Affine table entries, magnitude 1. *)
type affine = { ax : Fe.t; ay : Fe.t }

let fresh () =
  { x = Fe.create (); y = Fe.create (); z = Fe.create (); inf = true }
let infinity = fresh ()
let is_infinity pt = pt.inf

let set_point r a =
  Fe.set r.x a.x;
  Fe.set r.y a.y;
  Fe.set r.z a.z;
  r.inf <- a.inf

let of_affine_fe a =
  { x = Fe.copy a.ax; y = Fe.copy a.ay; z = Fe.of_int 1; inf = false }

let of_affine ~x ~y =
  if not (is_on_curve ~x ~y) then
    invalid_arg "Secp256k1.of_affine: point not on curve";
  of_affine_fe { ax = x; ay = y }

(* Montgomery's trick: normalise a whole array of points with a single
   field inversion. [prefix.(i)] holds the product of the non-infinity
   z's strictly before [i]; walking backwards with the inverse of the
   full product peels off one z^-1 per step at the cost of two
   multiplications. *)
let affine_batch pts =
  let len = Array.length pts in
  let prefix = Array.init len (fun _ -> Fe.create ()) in
  let acc = Fe.of_int 1 in
  Array.iteri
    (fun i pt ->
      Fe.set prefix.(i) acc;
      if not pt.inf then Fe.mul acc acc pt.z)
    pts;
  let inv = Fe.create () in
  Fe.inv inv acc;
  let out = Array.make len None in
  let zi = Fe.create () and zi2 = Fe.create () in
  for i = len - 1 downto 0 do
    let pt = pts.(i) in
    if not pt.inf then begin
      Fe.mul zi inv prefix.(i);
      Fe.mul inv inv pt.z;
      Fe.sqr zi2 zi;
      let x = Fe.create () and y = Fe.create () in
      Fe.mul x pt.x zi2;
      Fe.mul zi2 zi2 zi;
      Fe.mul y pt.y zi2;
      Fe.normalize x;
      Fe.normalize y;
      out.(i) <- Some { ax = x; ay = y }
    end
  done;
  out

let affine_fe pt = (affine_batch [| pt |]).(0)
let to_affine pt = Option.map (fun a -> (a.ax, a.ay)) (affine_fe pt)

(* Odd multiples, fixed-base windows and comb entries of a point of
   prime order ~2^256 are never infinity. *)
let affine_table pts =
  Array.map (function Some a -> a | None -> assert false) (affine_batch pts)

let neg pt =
  if pt.inf then pt
  else begin
    let y = Fe.create () in
    Fe.sub y (Fe.create ()) pt.y;
    { x = Fe.copy pt.x; y; z = Fe.copy pt.z; inf = false }
  end

(* r = 2a (r may be a), dbl-2009-l for a = 0 in 2M + 5S: A = X^2,
   C = Y^4, D = 2((X + Y^2)^2 - A - C) (magnitude 2), E = 3A (3),
   X3 = E^2 - 2D, Y3 = E (D - X3) - 8C, Z3 = 2YZ (2). With n odd there
   is no point of order 2, so Y never vanishes. *)
let double_to r a =
  if a.inf then r.inf <- true
  else begin
    let e = Fe.create () and c = Fe.create () and d = Fe.create () in
    Fe.sqr e a.x;
    Fe.sqr c a.y;
    Fe.add d a.x c;
    Fe.sqr d d;
    Fe.sub d d e;
    Fe.mul r.z a.y a.z;
    Fe.add r.z r.z r.z;
    Fe.sqr c c;
    Fe.sub d d c;
    Fe.add d d d;
    Fe.mul_int e e 3;
    Fe.sqr r.x e;
    Fe.sub r.x r.x d;
    Fe.sub r.x r.x d;
    Fe.sub d d r.x;
    Fe.mul r.y e d;
    Fe.mul_int c c 8;
    Fe.sub r.y r.y c;
    r.inf <- false
  end

(* The tail both additions share, from h = u2 - u1, i = s2 - s1 and
   zs = Z1 Z2 (Z1 for an affine second operand): X3 = i^2 - h^3 - 2 u1
   h^2, Y3 = i (u1 h^2 - X3) - s1 h^3, Z3 = zs h. [u1], [s1] and [zs]
   may be coordinates of [a], and [r] may be [a]: each is read before
   the coordinate of [r] that may hold it is written. *)
let finish_add r a ~u1 ~s1 ~h ~i ~zs =
  if Fe.is_zero h then if Fe.is_zero i then double_to r a else r.inf <- true
  else begin
    let h2 = Fe.create () and h3 = Fe.create () and t = Fe.create () in
    Fe.sqr h2 h;
    Fe.mul h3 h h2;
    Fe.mul r.z zs h;
    Fe.mul t u1 h2;
    Fe.sqr r.x i;
    Fe.sub r.x r.x h3;
    Fe.mul_int h2 t 2;
    Fe.sub r.x r.x h2;
    Fe.mul h3 h3 s1;
    Fe.sub t t r.x;
    Fe.mul r.y t i;
    Fe.sub r.y r.y h3;
    r.inf <- false
  end

(* r = a + b for affine b whose y may carry magnitude 2 (r may be a):
   mixed addition, 8M + 3S. *)
let add_ge_to r a b =
  if a.inf then set_point r (of_affine_fe b)
  else begin
    let z12 = Fe.create () and h = Fe.create () and i = Fe.create () in
    Fe.sqr z12 a.z;
    Fe.mul h b.ax z12;
    Fe.sub h h a.x;
    Fe.mul i b.ay z12;
    Fe.mul i i a.z;
    Fe.sub i i a.y;
    finish_add r a ~u1:a.x ~s1:a.y ~h ~i ~zs:a.z
  end

(* r = a + b, both Jacobian (r may alias either). 12M + 4S. *)
let add_to r a b =
  if a.inf then set_point r b
  else if b.inf then set_point r a
  else begin
    let z1z1 = Fe.create () and z2z2 = Fe.create () and zs = Fe.create () in
    let u1 = Fe.create () and s1 = Fe.create () in
    let h = Fe.create () and i = Fe.create () in
    Fe.sqr z1z1 a.z;
    Fe.sqr z2z2 b.z;
    Fe.mul u1 a.x z2z2;
    Fe.mul h b.x z1z1;
    Fe.sub h h u1;
    Fe.mul s1 a.y z2z2;
    Fe.mul s1 s1 b.z;
    Fe.mul i b.y z1z1;
    Fe.mul i i a.z;
    Fe.sub i i s1;
    Fe.mul zs a.z b.z;
    finish_add r a ~u1 ~s1 ~h ~i ~zs
  end

let double pt = let r = fresh () in double_to r pt; r
let add a b = let r = fresh () in add_to r a b; r

(* The reference ladder: plain double-and-add over the scalar's bits. *)
let mul scalar pt =
  let acc = fresh () in
  for i = Scalar.num_bits scalar - 1 downto 0 do
    double_to acc acc;
    if Scalar.bit scalar i then add_to acc acc pt
  done;
  acc

let g = of_affine ~x:gx ~y:gy

(* --- Fixed-base multiplication by G.

   The scalar is cut into [window_w]-bit digits; digit [d] of window [w]
   contributes d * 2^(window_w * w) * G, read from a table of affine
   points. A full mul_g is then ~43 mixed additions and no doublings,
   against 256 doublings + ~128 additions for the generic ladder. The
   table (43 windows x 63 non-zero digits, ~2700 points, ~0.5 MB) is
   built once per domain on first use, normalised to affine with a
   single batched inversion, and lives in domain-local storage so
   concurrent domains never share mutable state. --- *)

let window_w = 6
let g_windows = (256 + window_w - 1) / window_w
let g_digits = (1 lsl window_w) - 1

let build_g_table () =
  let jac = Array.init (g_windows * g_digits) (fun _ -> fresh ()) in
  let base = fresh () in
  set_point base g;
  for win = 0 to g_windows - 1 do
    let row = win * g_digits in
    set_point jac.(row) base;
    for j = 1 to g_digits - 1 do
      add_to jac.(row + j) jac.(row + j - 1) base
    done;
    for _ = 1 to window_w do
      double_to base base
    done
  done;
  affine_table jac

let g_table_key = Domain.DLS.new_key build_g_table

let mul_g scalar =
  let tbl = Domain.DLS.get g_table_key in
  let digits = Scalar.windows ~width:window_w scalar in
  let acc = fresh () in
  Array.iteri
    (fun win d ->
      if d <> 0 then add_ge_to acc acc tbl.((win * g_digits) + d - 1))
    digits;
  acc

(* --- Variable-base multiplication: a Lim-Lee comb, or GLV + wNAF.

   Both shapes of [mul_add_precomp] evaluate a*G + b*P in one chain of
   doublings, and both read G off a comb (below). What differs is P's
   table:
   - A comb of P ([comb]) makes the chain 32 doublings long, with at
     most one mixed addition per column per base: about 32 * 7 + 64 *
     11 = 930 field multiplications and squarings, against about 1,680
     for the GLV chain. Building the table costs about 6.1k, so it pays
     only for a key that is used many times ([Schnorr] builds it at 8
     uses in a chunk and caches it per domain).
   - The odd multiples P, 3P, ..., 15P ([precompute], width-5 wNAF)
     and, for free, those of lambda P = (beta x, y). A scalar k splits
     as k1 + lambda k2 with both halves about 128 bits, so k P is two
     128-bit wNAF ladders sharing one chain of ~128 doublings; G's comb
     columns join that chain at positions 31..0.

   The comb has [comb_teeth] = 8 teeth at spacing [comb_spacing] = 32:
   column j of a scalar holds bit j + 32 t as its bit t, and table
   entry c - 1 is the sum of 2^(32 t) P over the bits t set in c, so
   k P = sum_j 2^j T[column j]. No entry is infinity: each is m P with
   0 < m < 2^225 < n. --- *)

let wnaf_w = 5
let comb_teeth = 8
let comb_spacing = 256 / comb_teeth

type precomp =
  | Wnaf of { odd : affine array; odd_lambda : affine array }
  | Comb of affine array

let odd_multiples base count =
  let jac = Array.init count (fun _ -> fresh ()) in
  let twice = double base in
  set_point jac.(0) base;
  for i = 1 to count - 1 do
    add_to jac.(i) jac.(i - 1) twice
  done;
  affine_table jac

let precompute pt =
  if pt.inf then invalid_arg "Secp256k1.precompute: infinity";
  let odd = odd_multiples pt (1 lsl (wnaf_w - 2)) in
  let times_lambda a =
    let x = Fe.create () in
    Fe.mul x a.ax beta;
    Fe.normalize x;
    { ax = x; ay = a.ay }
  in
  Wnaf { odd; odd_lambda = Array.map times_lambda odd }

(* The teeth 2^(32 t) P are normalised first, so each of the 247 sums
   of two or more teeth is one mixed addition onto a smaller sum. *)
let comb_table pt =
  let teeth = Array.init comb_teeth (fun _ -> fresh ()) in
  set_point teeth.(0) pt;
  for t = 1 to comb_teeth - 1 do
    double_to teeth.(t) teeth.(t - 1);
    for _ = 2 to comb_spacing do
      double_to teeth.(t) teeth.(t)
    done
  done;
  let teeth = affine_table teeth in
  let size = (1 lsl comb_teeth) - 1 in
  let jac = Array.init size (fun _ -> fresh ()) in
  let top = ref 0 in
  for c = 1 to size do
    if c = 2 lsl !top then incr top;
    let rest = c - (1 lsl !top) in
    add_ge_to jac.(c - 1)
      (if rest = 0 then infinity else jac.(rest - 1))
      teeth.(!top)
  done;
  affine_table jac

let comb pt =
  if pt.inf then invalid_arg "Secp256k1.comb: infinity";
  Comb (comb_table pt)

let g_comb_key = Domain.DLS.new_key (fun () -> comb_table g)

(* One shared chain of doublings from position [len - 1] down to 0. At
   position i each (digits, negated, table) wNAF ladder adds its digit
   i's table entry, y negated for a negative digit or a negated ladder,
   and each (columns, table) comb adds the entry of its column i. *)
let chain ladders combs =
  let len =
    List.fold_left (fun m (d, _, _) -> max m (Array.length d)) comb_spacing
      ladders
  in
  let acc = fresh () and neg_y = Fe.create () in
  for i = len - 1 downto 0 do
    double_to acc acc;
    List.iter
      (fun (digits, negated, tbl) ->
        let d = if i < Array.length digits then digits.(i) else 0 in
        if d <> 0 then begin
          let e = tbl.((abs d - 1) / 2) in
          if (d < 0) <> negated then begin
            Fe.neg neg_y e.ay 1;
            add_ge_to acc acc { ax = e.ax; ay = neg_y }
          end
          else add_ge_to acc acc e
        end)
      ladders;
    if i < comb_spacing then
      List.iter
        (fun (columns, tbl) ->
          let c = columns.(i) in
          if c <> 0 then add_ge_to acc acc tbl.(c - 1))
        combs
  done;
  acc

let mul_add_precomp ~g_scalar scalar tbl =
  let g_comb =
    (Scalar.comb_columns ~teeth:comb_teeth g_scalar, Domain.DLS.get g_comb_key)
  in
  match tbl with
  | Comb entries ->
      chain [] [ g_comb; (Scalar.comb_columns ~teeth:comb_teeth scalar, entries) ]
  | Wnaf { odd; odd_lambda } ->
      let (neg1, k1), (neg2, k2) =
        Scalar.split_lambda (Scalar.reduce scalar)
      in
      chain
        [
          (Scalar.wnaf ~w:wnaf_w k1, neg1, odd);
          (Scalar.wnaf ~w:wnaf_w k2, neg2, odd_lambda);
        ]
        [ g_comb ]

let mul_add ~g_scalar scalar pt =
  if is_infinity pt || Scalar.is_zero scalar then mul_g g_scalar
  else mul_add_precomp ~g_scalar scalar (precompute pt)

let has_x pt x =
  (not pt.inf)
  &&
  let z2 = Fe.create () in
  Fe.sqr z2 pt.z;
  Fe.mul z2 z2 x;
  Fe.equal z2 pt.x

let equal pt1 pt2 =
  match (affine_fe pt1, affine_fe pt2) with
  | None, None -> true
  | Some a, Some b -> Fe.equal a.ax b.ax && Fe.equal a.ay b.ay
  | _ -> false

let encode_compressed pt =
  match affine_fe pt with
  | None -> String.make 33 '\000'
  | Some a ->
      (if Fe.is_odd a.ay then "\x03" else "\x02") ^ Fe.to_bytes_be a.ax

let decode_compressed s =
  if s = String.make 33 '\000' then Some infinity
  else if String.length s <> 33 || (s.[0] <> '\x02' && s.[0] <> '\x03') then
    None
  else
    match Fe.of_canonical_bytes (String.sub s 1 32) with
    | None -> None
    | Some x ->
        let y = Fe.create () in
        if not (Fe.sqrt y (curve_rhs x)) then None
        else begin
          Fe.normalize y;
          if Fe.is_odd y <> (s.[0] = '\x03') then Fe.sub y (Fe.create ()) y;
          Some (of_affine_fe { ax = x; ay = y })
        end
