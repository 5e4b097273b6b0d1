(* Tests for lo_sketch: GF(2^32) field laws and the bit-serial
   reference, polynomial arithmetic, Berlekamp–Massey, PinSketch
   encode/decode semantics, and the partitioned reconciliation of
   Sec. 6.5. *)

open Lo_sketch

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let elt_gen = QCheck2.Gen.int_range 0 Gf2m.mask
let nonzero_gen = QCheck2.Gen.int_range 1 Gf2m.mask

(* The library has no power or trace function; these fold the
   Frobenius orbit a, a^2, ..., a^(2^31) with [Gf2m.sq], so the laws
   below check [Gf2m.sq] and [Gf2m.mul]: a^(2^32 - 1) is the product of
   the orbit and Tr(a) its sum. *)
let orbit_fold f init a =
  let acc = ref init and cur = ref a in
  for _ = 1 to 32 do
    acc := f !acc !cur;
    cur := Gf2m.sq !cur
  done;
  !acc

let trace = orbit_fold ( lxor ) 0

let field_tests =
  [
    qtest "gf32: mul commutes" QCheck2.Gen.(pair elt_gen elt_gen)
      (fun (a, b) -> Gf2m.mul a b = Gf2m.mul b a);
    qtest "gf32: mul associates" QCheck2.Gen.(triple elt_gen elt_gen elt_gen)
      (fun (a, b, c) -> Gf2m.mul (Gf2m.mul a b) c = Gf2m.mul a (Gf2m.mul b c));
    qtest "gf32: distributive" QCheck2.Gen.(triple elt_gen elt_gen elt_gen)
      (fun (a, b, c) ->
        Gf2m.mul a (b lxor c) = Gf2m.mul a b lxor Gf2m.mul a c);
    qtest "gf32: one is neutral" elt_gen (fun a -> Gf2m.mul a 1 = a);
    qtest "gf32: zero annihilates" elt_gen (fun a -> Gf2m.mul a 0 = 0);
    qtest "gf32: inverse" nonzero_gen (fun a -> Gf2m.mul a (Gf2m.inv a) = 1);
    qtest "gf32: sq = mul self" elt_gen (fun a -> Gf2m.sq a = Gf2m.mul a a);
    qtest "gf32: frobenius is additive" QCheck2.Gen.(pair elt_gen elt_gen)
      (fun (a, b) -> Gf2m.sq (a lxor b) = Gf2m.sq a lxor Gf2m.sq b);
    qtest "gf32: order divides 2^m - 1" nonzero_gen (fun a ->
        orbit_fold Gf2m.mul 1 a = 1);
    qtest "gf32: trace in {0,1}" elt_gen (fun a ->
        let t = trace a in
        t = 0 || t = 1);
    qtest "gf32: trace is additive" QCheck2.Gen.(pair elt_gen elt_gen)
      (fun (a, b) -> trace (a lxor b) = trace a lxor trace b);
    qtest "gf32: div = mul by inverse" QCheck2.Gen.(pair elt_gen nonzero_gen)
      (fun (a, b) -> Gf2m.div a b = Gf2m.mul a (Gf2m.inv b));
  ]

(* ------- The field against the bit-serial reference ------- *)

(* [Gf32_ref] multiplies one bit at a time and shares no code with
   [Gf2m]. Operands mix uniform elements with the edge values 0, 1,
   2^31 and 2^32 - 1, where a window or a fold is most likely to drop a
   bit. *)
let edges = [ 0; 1; 2; 1 lsl 31; Gf2m.mask ]
let edge_elt_gen = QCheck2.Gen.(frequency [ (1, oneofl edges); (3, elt_gen) ])

let edge_nonzero_gen =
  QCheck2.Gen.(
    frequency [ (1, oneofl (List.filter (( <> ) 0) edges)); (3, nonzero_gen) ])

(* Run lengths on both sides of the window-table threshold of 16. *)
let kernel_n_gen = QCheck2.Gen.(oneof [ int_range 0 15; int_range 16 40 ])

let ref_tests =
  [
    Alcotest.test_case "x^32 + x^7 + x^3 + x^2 + 1 is irreducible" `Quick
      (fun () -> check_bool "irreducible" true (Gf32_ref.is_irreducible ()));
    qtest "mul = reference" ~count:500
      QCheck2.Gen.(pair edge_elt_gen edge_elt_gen)
      (fun (a, b) -> Gf2m.mul a b = Gf32_ref.mul a b);
    Alcotest.test_case "edge values = reference" `Quick (fun () ->
        List.iter
          (fun a ->
            let name op = Printf.sprintf "%s %#x" op a in
            check_int (name "sq") (Gf32_ref.mul a a) (Gf2m.sq a);
            if a <> 0 then check_int (name "inv") (Gf32_ref.inv a) (Gf2m.inv a);
            List.iter
              (fun b ->
                check_int (name "mul") (Gf32_ref.mul a b) (Gf2m.mul a b);
                if b <> 0 then
                  check_int (name "div") (Gf32_ref.div a b) (Gf2m.div a b))
              edges)
          edges);
    qtest "sq = reference" ~count:500 edge_elt_gen (fun a ->
        Gf2m.sq a = Gf32_ref.mul a a);
    qtest "inv = reference" ~count:200 edge_nonzero_gen (fun a ->
        Gf2m.inv a = Gf32_ref.inv a);
    qtest "div = reference" ~count:200
      QCheck2.Gen.(pair edge_elt_gen edge_nonzero_gen)
      (fun (a, b) -> Gf2m.div a b = Gf32_ref.div a b);
    qtest "reduce = reference on any 63-bit word" ~count:500 QCheck2.Gen.int
      (fun q -> Gf2m.reduce q = Gf32_ref.reduce q);
    qtest "reduce (accum_window) = reference" ~count:300
      QCheck2.Gen.(pair (list_size (int_range 1 8) edge_elt_gen) edge_elt_gen)
      (fun (xs, b) ->
        let src = Array.of_list xs in
        let dst = Array.make (Array.length src) 0 in
        let tab = Array.make 256 0 in
        Gf2m.fill_window tab b;
        Gf2m.accum_window tab src dst ~off:0 ~len:(Array.length src);
        Array.for_all2 (fun d x -> Gf2m.reduce d = Gf32_ref.mul x b) dst src);
    qtest "accum_powers = reference" ~count:300
      QCheck2.Gen.(triple kernel_n_gen edge_elt_gen edge_elt_gen)
      (fun (n, base, step) ->
        let s1 = Array.init (n + 2) (fun i -> (i * 0x9E3779B9) land Gf2m.mask) in
        let s2 = Array.copy s1 in
        Gf2m.accum_powers ~base ~step s1 ~n;
        Gf32_ref.accum_powers ~base ~step s2 ~n;
        s1 = s2);
    qtest "accum_powers2 = reference" ~count:300
      QCheck2.Gen.(
        pair kernel_n_gen (array_size (return 4) edge_elt_gen))
      (fun (n, args) ->
        let s1 = Array.init (n + 2) (fun i -> (i * 0x9E3779B9) land Gf2m.mask) in
        let s2 = Array.copy s1 in
        Gf2m.accum_powers2 ~base1:args.(0) ~step1:args.(1) ~base2:args.(2)
          ~step2:args.(3) s1 ~n;
        Gf32_ref.accum_powers ~base:args.(0) ~step:args.(1) s2 ~n;
        Gf32_ref.accum_powers ~base:args.(2) ~step:args.(3) s2 ~n;
        s1 = s2);
  ]

(* ---------------- Polynomials ---------------- *)

let poly_gen =
  QCheck2.Gen.(map (fun l -> Poly.of_coeffs l) (list_size (int_bound 8) elt_gen))

let nonzero_poly_gen =
  QCheck2.Gen.(
    map2
      (fun l lead -> Poly.of_coeffs (l @ [ lead ]))
      (list_size (int_bound 7) elt_gen)
      nonzero_gen)

let poly_tests =
  [
    Alcotest.test_case "normalisation" `Quick (fun () ->
        check_int "degree" 1 (Poly.degree (Poly.of_coeffs [ 1; 2; 0; 0 ]));
        check_bool "zero" true (Poly.is_zero (Poly.of_coeffs [ 0; 0 ])));
    Alcotest.test_case "eval" `Quick (fun () ->
        (* p(x) = x^2 + 3 at x=2: 2*2 xor 3 = 4 xor 3 = 7 *)
        let p = Poly.of_coeffs [ 3; 0; 1 ] in
        check_int "eval" 7 (Poly_ref.eval p 2));
    qtest "add is xor of coeffs" QCheck2.Gen.(pair poly_gen poly_gen)
      (fun (a, b) ->
        let s = Poly.add a b in
        List.for_all
          (fun i -> Poly.coeff s i = Poly.coeff a i lxor Poly.coeff b i)
          (List.init 12 Fun.id));
    qtest "mul degree adds"
      QCheck2.Gen.(pair nonzero_poly_gen nonzero_poly_gen)
      (fun (a, b) ->
        Poly.degree (Poly.mul a b) = Poly.degree a + Poly.degree b);
    qtest "divmod reconstructs"
      QCheck2.Gen.(pair poly_gen nonzero_poly_gen)
      (fun (a, b) ->
        let q, r = Poly.divmod a b in
        Poly.equal a (Poly.add (Poly.mul q b) r)
        && (Poly.is_zero r || Poly.degree r < Poly.degree b));
    qtest "gcd divides both"
      QCheck2.Gen.(pair nonzero_poly_gen nonzero_poly_gen)
      (fun (a, b) ->
        let g = Poly.gcd a b in
        let _, ra = Poly.divmod a g in
        let _, rb = Poly.divmod b g in
        Poly.is_zero ra && Poly.is_zero rb);
    Alcotest.test_case "monic leading coeff" `Quick (fun () ->
        let p = Poly.of_coeffs [ 3; 5; 9 ] in
        let m = Poly.monic p in
        check_int "lead" 1 (Poly.coeff m (Poly.degree m)));
    qtest "square_mod = mul_mod self" ~count:100
      QCheck2.Gen.(pair poly_gen nonzero_poly_gen)
      (fun (a, m) ->
        QCheck2.assume (Poly.degree m >= 1);
        Poly.equal (Poly.square_mod a ~modulus:m)
          (Poly_ref.mul_mod a a ~modulus:m));
    Alcotest.test_case "roots of known product" `Quick (fun () ->
        (* (x-3)(x-5)(x-9); subtraction = xor *)
        let lin r = Poly.of_coeffs [ r; 1 ] in
        let p = Poly.mul (Poly.mul (lin 3) (lin 5)) (lin 9) in
        match Poly.roots p with
        | Some rs ->
            check_bool "roots" true (List.sort compare rs = [ 3; 5; 9 ])
        | None -> Alcotest.fail "no roots found");
    Alcotest.test_case "repeated roots rejected" `Quick (fun () ->
        let lin r = Poly.of_coeffs [ r; 1 ] in
        let p = Poly.mul (lin 3) (lin 3) in
        check_bool "rejected" true (Poly.roots p = None));
    Alcotest.test_case "irreducible quadratic rejected" `Quick (fun () ->
        (* x^2 + x + alpha is irreducible for some alpha; find one whose
           roots call returns None. frobenius_fixed must be false for an
           irreducible quadratic over the field itself... use trace: an
           element with trace 1 makes x^2+x+a irreducible. The trace is
           linear and nonzero, so some basis element 2^i has trace 1, and
           the first such is also the least element with trace 1. *)
        let a =
          let rec find i =
            if Gf32_ref.trace (1 lsl i) = 1 then 1 lsl i else find (i + 1)
          in
          find 0
        in
        let p = Poly.of_coeffs [ a; 1; 1 ] in
        check_bool "no roots" true (Poly.roots p = None));
    qtest "random split polynomials fully factor" ~count:60
      QCheck2.Gen.(list_size (int_range 1 12) nonzero_gen)
      (fun roots ->
        let roots = List.sort_uniq compare roots in
        let p =
          List.fold_left
            (fun acc r -> Poly.mul acc (Poly.of_coeffs [ r; 1 ]))
            Poly.one roots
        in
        match Poly.roots p with
        | Some rs -> List.sort compare rs = roots
        | None -> false);
  ]

(* ------- Root finding and division against the reference ------- *)

(* [Poly_ref] is the trace-splitting search and the schoolbook
   division the decoder ran before the Frobenius table and the
   lazy-reduction kernel. Root order is observable (it orders the ids
   of a decoded delta), so the roots must match as lists. *)

let product roots =
  List.fold_left
    (fun acc r -> Poly.mul acc (Poly.of_coeffs [ r; 1 ]))
    Poly.one roots

(* A fully split squarefree polynomial of degree [lo..hi] with a random
   nonzero leading coefficient. *)
let split_poly_gen ~lo ~hi =
  QCheck2.Gen.(
    map2
      (fun roots lead -> Poly.scale lead (product (List.sort_uniq compare roots)))
      (list_size (int_range lo hi) elt_gen)
      nonzero_gen)

(* Polynomials the decoder must reject or accept exactly as the
   reference does: split ones, ones with a repeated root, and split
   ones times a random (rarely split) factor. *)
let mixed_poly_gen =
  QCheck2.Gen.(
    oneof
      [
        split_poly_gen ~lo:1 ~hi:30;
        map2
          (fun roots r -> product (r :: r :: List.sort_uniq compare roots))
          (list_size (int_range 0 20) elt_gen)
          elt_gen;
        map2 Poly.mul
          (split_poly_gen ~lo:0 ~hi:20)
          (map2
             (fun l lead -> Poly.of_coeffs (l @ [ lead ]))
             (list_size (int_range 1 6) elt_gen)
             nonzero_gen);
      ])

let big_poly_gen ~max_degree =
  QCheck2.Gen.(
    map2
      (fun l lead -> Poly.of_coeffs (l @ [ lead ]))
      (list_size (int_bound max_degree) elt_gen)
      nonzero_gen)

let poly_ref_tests =
  let reference a = Gf32_ref.pow a (Gf2m.mask - 1) in
  [
    qtest "gf32: roots = reference, order included" ~count:40
      (split_poly_gen ~lo:1 ~hi:140)
      (fun p -> Poly.roots p = Poly_ref.roots p);
    qtest "gf32: roots None exactly where the reference" ~count:150
      mixed_poly_gen
      (fun p -> Poly.roots p = Poly_ref.roots p);
    qtest "gf32: divmod = reference" ~count:300
      QCheck2.Gen.(
        pair (big_poly_gen ~max_degree:90) (big_poly_gen ~max_degree:45))
      (fun (a, b) -> Poly.divmod a b = Poly_ref.divmod a b);
    qtest "gf32: gcd = reference" ~count:100
      QCheck2.Gen.(
        pair (big_poly_gen ~max_degree:60) (big_poly_gen ~max_degree:60))
      (fun (a, b) -> Poly.gcd a b = Poly_ref.gcd a b);
    qtest "gf32: inv = pow a (mask - 1)" ~count:500 nonzero_gen (fun a ->
        Gf2m.inv a = reference a);
    Alcotest.test_case "gf32: inv edge values" `Quick (fun () ->
        List.iter
          (fun a -> check_int (string_of_int a) (reference a) (Gf2m.inv a))
          [ 1; 2; 1 lsl 31; Gf2m.mask ]);
    qtest "gf32: reduce (accum_window) = mul"
      QCheck2.Gen.(pair (list_size (int_range 1 8) elt_gen) elt_gen)
      (fun (xs, b) ->
        let src = Array.of_list xs in
        let dst = Array.make (Array.length src + 1) 0 in
        let tab = Array.make 256 0 in
        Gf2m.fill_window tab b;
        Gf2m.accum_window tab src dst ~off:1 ~len:(Array.length src);
        dst.(0) = 0
        && List.for_all
             (fun j -> Gf2m.reduce dst.(j + 1) = Gf2m.mul src.(j) b)
             (List.init (Array.length src) Fun.id));
    Alcotest.test_case "accum_window rejects a short table" `Quick (fun () ->
        let src = [| 1; 2; 3 |] and dst = Array.make 3 0 in
        Alcotest.check_raises "short" (Invalid_argument "Gf2m.accum_window")
          (fun () -> Gf2m.accum_window (Array.make 255 0) src dst ~off:0 ~len:3));
  ]

(* ---------------- Berlekamp–Massey ---------------- *)

let bm_tests =
  [
    Alcotest.test_case "all-zero sequence" `Quick (fun () ->
        let c, l = Berlekamp_massey.run (Array.make 8 0) in
        check_int "length" 0 l;
        check_bool "trivial" true (Poly.equal c Poly.one));
    Alcotest.test_case "known LFSR recovered" `Quick (fun () ->
        (* s_i = 3*s_{i-1} xor 2*s_{i-2}; connection poly 1 + 3x + 2x^2 *)
        let n = 12 in
        let s = Array.make n 0 in
        s.(0) <- 1;
        s.(1) <- 5;
        for i = 2 to n - 1 do
          s.(i) <- Gf2m.mul 3 s.(i - 1) lxor Gf2m.mul 2 s.(i - 2)
        done;
        let c, l = Berlekamp_massey.run s in
        check_int "length" 2 l;
        check_bool "poly" true (Poly.equal c (Poly.of_coeffs [ 1; 3; 2 ])));
    qtest "recovered LFSR regenerates sequence" ~count:50
      QCheck2.Gen.(list_size (int_range 4 10) elt_gen)
      (fun prefix ->
        let s = Array.of_list (prefix @ prefix) in
        let c, l = Berlekamp_massey.run s in
        (* check the recurrence for i >= l *)
        let ok = ref true in
        for i = l to Array.length s - 1 do
          let acc = ref s.(i) in
          for j = 1 to l do
            acc := !acc lxor Gf2m.mul (Poly.coeff c j) s.(i - j)
          done;
          if !acc <> 0 then ok := false
        done;
        !ok);
  ]

(* ---------------- Sketch ---------------- *)

let rand_distinct rng n =
  let tbl = Hashtbl.create n in
  let rec go acc k =
    if k = 0 then acc
    else begin
      let v = 1 + Lo_net.Rng.int rng (Gf2m.mask - 1) in
      if Hashtbl.mem tbl v then go acc k
      else begin
        Hashtbl.add tbl v ();
        go (v :: acc) (k - 1)
      end
    end
  in
  go [] n

let sketch_tests =
  [
    Alcotest.test_case "empty decodes to empty" `Quick (fun () ->
        let s = Sketch.create ~capacity:8 () in
        check_bool "empty" true (Sketch.is_empty s);
        check_bool "decode" true (Sketch.decode s = Ok []));
    Alcotest.test_case "single element" `Quick (fun () ->
        let s = Sketch.create ~capacity:8 () in
        Sketch.add s 42;
        check_bool "decode" true (Sketch.decode s = Ok [ 42 ]));
    Alcotest.test_case "add twice removes" `Quick (fun () ->
        let s = Sketch.create ~capacity:8 () in
        Sketch.add s 42;
        Sketch.add s 42;
        check_bool "empty" true (Sketch.is_empty s));
    Alcotest.test_case "zero rejected" `Quick (fun () ->
        let s = Sketch.create ~capacity:4 () in
        Alcotest.check_raises "zero" (Invalid_argument "Sketch.add: element")
          (fun () -> Sketch.add s 0));
    Alcotest.test_case "out-of-field rejected" `Quick (fun () ->
        let s = Sketch.create ~capacity:4 () in
        Alcotest.check_raises "range" (Invalid_argument "Sketch.add: element")
          (fun () -> Sketch.add s (1 lsl 32)));
    Alcotest.test_case "merge incompatible rejected" `Quick (fun () ->
        let a = Sketch.create ~capacity:4 () and b = Sketch.create ~capacity:8 () in
        Alcotest.check_raises "capacity"
          (Invalid_argument "Sketch.merge: incompatible sketches") (fun () ->
            ignore (Sketch.merge a b)));
    Alcotest.test_case "decode at exact capacity" `Quick (fun () ->
        let rng = Lo_net.Rng.create 7 in
        let elems = rand_distinct rng 16 in
        let s = Sketch.of_list ~capacity:16 elems in
        match Sketch.decode s with
        | Ok d -> check_bool "exact" true (List.sort compare d = List.sort compare elems)
        | Error _ -> Alcotest.fail "decode failed at capacity");
    Alcotest.test_case "over capacity fails" `Quick (fun () ->
        let rng = Lo_net.Rng.create 8 in
        let elems = rand_distinct rng 20 in
        let s = Sketch.of_list ~capacity:16 elems in
        check_bool "fails" true (Sketch.decode s = Error `Decode_failure));
    Alcotest.test_case "wire roundtrip" `Quick (fun () ->
        let rng = Lo_net.Rng.create 9 in
        let s = Sketch.of_list ~capacity:8 (rand_distinct rng 5) in
        let w = Lo_codec.Writer.create () in
        Sketch.encode w s;
        check_int "size" (Sketch.serialized_size s) (Lo_codec.Writer.length w);
        let s' = Sketch.decode_wire (Lo_codec.Reader.of_string (Lo_codec.Writer.contents w)) in
        check_bool "same decode" true (Sketch.decode s' = Sketch.decode s));
    qtest "encode_into matches encode byte-for-byte" ~count:50
      QCheck2.Gen.(pair (int_range 1 40) (int_range 0 30))
      (fun (capacity, n) ->
        let rng = Lo_net.Rng.create ((capacity * 1009) + n) in
        let s = Sketch.of_list ~capacity (rand_distinct rng (min n capacity)) in
        let w = Lo_codec.Writer.create () in
        Sketch.encode w s;
        let buf = Bytes.create (Sketch.serialized_size s) in
        Sketch.encode_into s buf ~pos:0;
        Bytes.to_string buf = Lo_codec.Writer.contents w);
    qtest "merge decodes symmetric difference" ~count:40
      QCheck2.Gen.(triple (int_bound 50) (int_bound 10) (int_bound 10))
      (fun (shared_n, only_a_n, only_b_n) ->
        let rng = Lo_net.Rng.create (shared_n + (17 * only_a_n) + (31 * only_b_n)) in
        let all = rand_distinct rng (shared_n + only_a_n + only_b_n) in
        let rec split3 a b c na nb xs =
          match xs with
          | [] -> (a, b, c)
          | x :: rest ->
              if na > 0 then split3 (x :: a) b c (na - 1) nb rest
              else if nb > 0 then split3 a (x :: b) c 0 (nb - 1) rest
              else split3 a b (x :: c) 0 0 rest
        in
        let only_a, only_b, shared = split3 [] [] [] only_a_n only_b_n all in
        let sa = Sketch.of_list ~capacity:32 (shared @ only_a) in
        let sb = Sketch.of_list ~capacity:32 (shared @ only_b) in
        match Sketch.decode (Sketch.merge sa sb) with
        | Ok d ->
            List.sort compare d = List.sort compare (only_a @ only_b)
        | Error `Decode_failure -> false);
    Alcotest.test_case "truncate is a syndrome prefix" `Quick (fun () ->
        let rng = Lo_net.Rng.create 11 in
        let elems = rand_distinct rng 5 in
        let big = Sketch.of_list ~capacity:32 elems in
        let small = Sketch.truncate big ~capacity:8 in
        check_int "capacity" 8 (Sketch.capacity small);
        let direct = Sketch.of_list ~capacity:8 elems in
        check_bool "same decode" true (Sketch.decode small = Sketch.decode direct));
    Alcotest.test_case "truncate clamps above capacity" `Quick (fun () ->
        let s = Sketch.create ~capacity:8 () in
        check_int "clamped" 8 (Sketch.capacity (Sketch.truncate s ~capacity:100)));
    qtest "truncated decode succeeds when diff fits" ~count:40
      QCheck2.Gen.(int_range 1 12)
      (fun diff ->
        let rng = Lo_net.Rng.create (diff * 31) in
        let elems = rand_distinct rng diff in
        let big = Sketch.of_list ~capacity:64 elems in
        Sketch.decode (Sketch.truncate big ~capacity:(diff + 4))
        = Ok (List.sort compare elems)
        || Sketch.decode (Sketch.truncate big ~capacity:(diff + 4))
           = Ok elems
        ||
        match Sketch.decode (Sketch.truncate big ~capacity:(diff + 4)) with
        | Ok d -> List.sort compare d = List.sort compare elems
        | Error _ -> false);
    qtest "order of insertion is irrelevant" ~count:50
      QCheck2.Gen.(list_size (int_range 1 12) (int_range 1 1000))
      (fun xs ->
        let xs = List.sort_uniq compare xs in
        let s1 = Sketch.of_list ~capacity:16 xs in
        let s2 = Sketch.of_list ~capacity:16 (List.rev xs) in
        Sketch.decode (Sketch.merge s1 s2) = Ok []);
    (* The header's first byte names the field: 32, and nothing else
       decodes. *)
    Alcotest.test_case "wire header is field byte 32" `Quick (fun () ->
        let s = Sketch.of_list ~capacity:3 [ 1; 0xDEADBEEF ] in
        let w = Lo_codec.Writer.create () in
        Sketch.encode w s;
        let buf = Bytes.make (Sketch.serialized_size s + 2) '\xff' in
        Sketch.encode_into s buf ~pos:2;
        let wire = Lo_codec.Writer.contents w in
        check_int "size" (3 + (3 * 4)) (String.length wire);
        check_int "encode" 32 (Char.code wire.[0]);
        check_int "encode_into" 32 (Char.code (Bytes.get buf 2));
        check_int "capacity" 3 ((Char.code wire.[1] lsl 8) lor Char.code wire.[2]));
    Alcotest.test_case "decode_wire rejects bad headers" `Quick (fun () ->
        let body = String.make 8 '\x00' in
        let rejects label wire =
          match Sketch.decode_wire (Lo_codec.Reader.of_string wire) with
          | exception Lo_codec.Reader.Malformed _ -> ()
          | _ -> Alcotest.failf "%s accepted" label
        in
        let header m cap = Printf.sprintf "%c\x00%c" (Char.chr m) (Char.chr cap) in
        List.iter
          (fun m -> rejects (Printf.sprintf "field %d" m) (header m 2 ^ body))
          [ 8; 16; 31 ];
        rejects "capacity 0" (header 32 0 ^ body);
        rejects "truncated body" (header 32 2 ^ String.sub body 0 7);
        let ok = Sketch.decode_wire (Lo_codec.Reader.of_string (header 32 2 ^ body)) in
        check_int "accepted capacity" 2 (Sketch.capacity ok));
  ]

(* ---------------- BCH decode bound ----------------

   The property the reconciler's escalation logic leans on: a capacity-c
   sketch decodes any difference of size d <= c exactly, and for
   c < d <= 2c the BCH minimum distance guarantees no size-<=c set shares
   the syndromes, so decode fails cleanly instead of fabricating one. *)

let bch_bound_tests =
  [
    qtest "diff within capacity decodes exactly" ~count:60
      QCheck2.Gen.(pair (int_range 1 24) (int_range 0 10_000))
      (fun (d, salt) ->
        let capacity = 24 in
        let rng = Lo_net.Rng.create ((d * 7919) + salt) in
        let elems = rand_distinct rng d in
        match Sketch.decode (Sketch.of_list ~capacity elems) with
        | Ok got -> List.sort compare got = List.sort compare elems
        | Error `Decode_failure -> false);
    qtest "diff above capacity fails cleanly" ~count:60
      QCheck2.Gen.(pair (int_range 1 16) (int_range 0 10_000))
      (fun (excess, salt) ->
        let capacity = 16 in
        let d = capacity + excess in
        let rng = Lo_net.Rng.create ((d * 104729) + salt) in
        let elems = rand_distinct rng d in
        Sketch.decode (Sketch.of_list ~capacity elems) = Error `Decode_failure);
  ]

(* ---------------- Partitioned reconciliation ---------------- *)

(* Three disjoint random sets (shared, only-local, only-remote) of the
   given sizes, drawn from the nonzero GF(2^32) elements by a seeded
   generator. *)
let split_sets (seed, n_shared, n_local, n_remote) =
  let rng = Lo_net.Rng.create seed in
  let seen = Hashtbl.create 64 in
  let draw () =
    let rec go () =
      let v = 1 + Lo_net.Rng.int rng (Gf2m.mask - 1) in
      if Hashtbl.mem seen v then go ()
      else begin
        Hashtbl.add seen v ();
        v
      end
    in
    go ()
  in
  let take n = List.init n (fun _ -> draw ()) in
  let shared = take n_shared in
  let only_local = take n_local in
  (shared, only_local, take n_remote)

let partitioned_tests =
  [
    Alcotest.test_case "identical sets need one round" `Quick (fun () ->
        let rng = Lo_net.Rng.create 5 in
        let xs = rand_distinct rng 50 in
        let stats, diff = Partitioned.reconcile ~capacity:16 ~local:xs ~remote:xs () in
        check_int "rounds" 1 stats.Partitioned.reconciliations;
        check_bool "no diff" true (diff = []));
    Alcotest.test_case "small diff, no splits" `Quick (fun () ->
        let rng = Lo_net.Rng.create 6 in
        let shared = rand_distinct rng 100 in
        let extra = rand_distinct rng 5 in
        let stats, diff =
          Partitioned.reconcile ~capacity:16 ~local:(shared @ extra) ~remote:shared ()
        in
        check_int "rounds" 1 stats.Partitioned.reconciliations;
        check_bool "diff" true (List.sort compare diff = List.sort compare extra));
    Alcotest.test_case "large diff forces splits but recovers" `Quick (fun () ->
        let rng = Lo_net.Rng.create 7 in
        let local = rand_distinct rng 200 in
        let remote = rand_distinct rng 180 in
        let stats, diff = Partitioned.reconcile ~capacity:16 ~local ~remote () in
        check_bool "split happened" true (stats.Partitioned.decode_failures > 0);
        let expected =
          List.filter (fun x -> not (List.mem x remote)) local
          @ List.filter (fun x -> not (List.mem x local)) remote
        in
        check_bool "recovered" true
          (List.sort compare diff = List.sort compare expected));
    Alcotest.test_case "monolithic fails when undersized" `Quick (fun () ->
        let rng = Lo_net.Rng.create 8 in
        let local = rand_distinct rng 100 in
        let stats, result =
          Partitioned.reconcile_monolithic ~capacity:16 ~local ~remote:[] ()
        in
        check_int "failures" 1 stats.Partitioned.decode_failures;
        check_bool "none" true (result = None));
    Alcotest.test_case "monolithic succeeds when sized" `Quick (fun () ->
        let rng = Lo_net.Rng.create 9 in
        let local = rand_distinct rng 30 in
        let _, result =
          Partitioned.reconcile_monolithic ~capacity:30 ~local ~remote:[] ()
        in
        match result with
        | Some d -> check_bool "all" true (List.sort compare d = List.sort compare local)
        | None -> Alcotest.fail "decode failed");
    Alcotest.test_case "bytes accounted" `Quick (fun () ->
        let stats, _ =
          Partitioned.reconcile ~capacity:8 ~local:[ 1; 2; 3 ] ~remote:[ 2; 3; 4 ] ()
        in
        check_bool "bytes" true (stats.Partitioned.bytes_exchanged > 0));
    (* Beyond its capacity a sketch can decode to a wrong set with the
       right syndromes. These inputs (seed and set sizes, capacity 8)
       each hit one; the reconciler must see it and split again. *)
    Alcotest.test_case "wrong decodes split again" `Quick
      (fun () ->
        let cases =
          [
            (743334, 13, 7, 16);
            (590775, 37, 13, 18);
            (645685, 28, 11, 0);
            (798039, 22, 22, 14);
            (186707, 60, 23, 8);
          ]
        in
        List.iter
          (fun case ->
            let shared, only_local, only_remote = split_sets case in
            let _, diff =
              Partitioned.reconcile ~capacity:8 ~local:(shared @ only_local)
                ~remote:(shared @ only_remote) ()
            in
            check_bool "recovered" true
              (List.sort compare diff
              = List.sort compare (only_local @ only_remote)))
          cases);
  ]



(* ---------------- Strata estimator ---------------- *)

let strata_tests =
  [
    Alcotest.test_case "identical sets estimate zero" `Quick (fun () ->
        let rng = Lo_net.Rng.create 21 in
        let xs = rand_distinct rng 500 in
        let a = Strata.of_list xs and b = Strata.of_list xs in
        check_int "zero" 0 (Strata.estimate a b));
    Alcotest.test_case "small diffs are exact" `Quick (fun () ->
        let rng = Lo_net.Rng.create 22 in
        let shared = rand_distinct rng 300 in
        let extra = rand_distinct rng 7 in
        let a = Strata.of_list shared in
        let b = Strata.of_list (shared @ extra) in
        check_int "exact" 7 (Strata.estimate a b));
    Alcotest.test_case "large diffs within a small factor" `Quick (fun () ->
        List.iter
          (fun d ->
            let rng = Lo_net.Rng.create (23 + d) in
            let shared = rand_distinct rng 200 in
            let extra = rand_distinct rng d in
            let a = Strata.of_list shared in
            let b = Strata.of_list (shared @ extra) in
            let est = Strata.estimate a b in
            check_bool
              (Printf.sprintf "diff %d est %d" d est)
              true
              (est >= d / 3 && est <= 3 * d))
          [ 100; 400; 1500 ]);
    Alcotest.test_case "wire roundtrip" `Quick (fun () ->
        let rng = Lo_net.Rng.create 24 in
        let xs = rand_distinct rng 50 in
        let a = Strata.of_list xs in
        let w = Lo_codec.Writer.create () in
        Strata.encode w a;
        check_int "size" (Strata.serialized_size a) (Lo_codec.Writer.length w);
        let a' = Strata.decode_wire (Lo_codec.Reader.of_string (Lo_codec.Writer.contents w)) in
        check_int "same estimate" 0 (Strata.estimate a a'));
    Alcotest.test_case "mismatched params rejected" `Quick (fun () ->
        let a = Strata.create ~strata:8 () and b = Strata.create ~strata:16 () in
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Strata.estimate: mismatched estimators") (fun () ->
            ignore (Strata.estimate a b)));
    Alcotest.test_case "estimator can size a working sketch" `Quick (fun () ->
        (* The intended workflow: estimate, then reconcile with 2x the
           estimate as capacity. *)
        let rng = Lo_net.Rng.create 25 in
        let shared = rand_distinct rng 300 in
        let extra = rand_distinct rng 60 in
        let local = shared @ extra and remote = shared in
        let est =
          Strata.estimate (Strata.of_list local) (Strata.of_list remote)
        in
        check_bool "estimate in range" true (est >= 20 && est <= 180);
        (* start from 2x the estimate, escalate on failure — at most one
           escalation should ever be needed from a sane estimate *)
        let rec reconcile capacity escalations =
          let sl = Sketch.of_list ~capacity local in
          let sr = Sketch.of_list ~capacity remote in
          match Sketch.decode (Sketch.merge sl sr) with
          | Ok d ->
              check_int "full diff" 60 (List.length d);
              check_bool "at most one escalation" true (escalations <= 1)
          | Error `Decode_failure ->
              if escalations > 2 then Alcotest.fail "estimate useless"
              else reconcile (2 * capacity) (escalations + 1)
        in
        reconcile (max 8 (2 * est)) 0);
  ]

(* ---------------- Randomised properties ----------------

   The conformance-harness PR hardens these two modules with qcheck
   properties: the partitioned reconciler must recover exactly the
   symmetric difference for any input shape, the monolithic baseline
   must decode-or-fail honestly at its capacity bound, and the strata
   estimator must survive the wire byte-for-byte. *)

(* [split_sets] of bounded size. *)
let split_sets_gen =
  QCheck2.Gen.(
    map split_sets
      (quad (int_range 0 1_000_000) (int_bound 60) (int_bound 25)
         (int_bound 25)))

let sorted = List.sort compare

let prop_tests =
  [
    qtest ~count:100 "partitioned: recovers any symmetric difference"
      split_sets_gen
      (fun (shared, only_local, only_remote) ->
        let _, diff =
          Partitioned.reconcile ~capacity:8 ~local:(shared @ only_local)
            ~remote:(shared @ only_remote) ()
        in
        sorted diff = sorted (only_local @ only_remote));
    qtest ~count:100 "partitioned: direction symmetric" split_sets_gen
      (fun (shared, only_local, only_remote) ->
        let _, d1 =
          Partitioned.reconcile ~capacity:8 ~local:(shared @ only_local)
            ~remote:(shared @ only_remote) ()
        in
        let _, d2 =
          Partitioned.reconcile ~capacity:8 ~local:(shared @ only_remote)
            ~remote:(shared @ only_local) ()
        in
        sorted d1 = sorted d2);
    qtest ~count:100 "monolithic: decodes exactly within capacity"
      split_sets_gen
      (fun (shared, only_local, only_remote) ->
        let diff_size = List.length only_local + List.length only_remote in
        let capacity = max 1 diff_size in
        match
          Partitioned.reconcile_monolithic ~capacity
            ~local:(shared @ only_local) ~remote:(shared @ only_remote) ()
        with
        | _, Some diff -> sorted diff = sorted (only_local @ only_remote)
        | _, None -> false)
      (* a difference within capacity must never fail to decode *);
    qtest ~count:100 "monolithic: never crashes over capacity"
      split_sets_gen
      (fun (shared, only_local, only_remote) ->
        (* Over-capacity decodes may fail (None) — they must not raise
           and must count the failure. *)
        let diff_size = List.length only_local + List.length only_remote in
        if diff_size < 2 then true
        else
          let capacity = diff_size / 2 in
          match
            Partitioned.reconcile_monolithic ~capacity
              ~local:(shared @ only_local) ~remote:(shared @ only_remote) ()
          with
          | stats, None -> stats.Partitioned.decode_failures >= 1
          | _, Some s ->
              (* A capacity-c sketch holds at most c roots, so a correct
                 decode is impossible here. A spurious result S is only
                 permitted past the BCH distance bound: S and the true
                 difference D share syndromes iff S xor D is a nonzero
                 codeword, i.e. |S delta D| >= 2c + 1. (At diff = 2,
                 capacity = 1, this happens for every input: the sketch
                 of {a, b} equals the sketch of {a xor b}.) *)
              let tbl = Hashtbl.create 64 in
              let toggle e =
                if Hashtbl.mem tbl e then Hashtbl.remove tbl e
                else Hashtbl.add tbl e ()
              in
              List.iter toggle s;
              List.iter toggle (only_local @ only_remote);
              Hashtbl.length tbl >= (2 * capacity) + 1);
    qtest ~count:50 "strata: wire round-trip preserves estimates"
      split_sets_gen
      (fun (shared, only_local, only_remote) ->
        let a = Strata.of_list (shared @ only_local) in
        let b = Strata.of_list (shared @ only_remote) in
        let rt s =
          let w = Lo_codec.Writer.create () in
          Strata.encode w s;
          Strata.decode_wire (Lo_codec.Reader.of_string (Lo_codec.Writer.contents w))
        in
        Strata.estimate (rt a) (rt b) = Strata.estimate a b
        && Strata.estimate (rt a) (rt a) = 0);
    qtest ~count:50 "strata: estimate is symmetric" split_sets_gen
      (fun (shared, only_local, only_remote) ->
        let a = Strata.of_list (shared @ only_local) in
        let b = Strata.of_list (shared @ only_remote) in
        Strata.estimate a b = Strata.estimate b a);
  ]

(* ---------------- Kernels ----------------

   Reconciliation end to end against the symmetric difference computed
   directly, and the fused field kernels against the definitional
   loops. *)

let symmetric_difference local remote =
  List.sort compare
    (List.filter (fun x -> not (List.mem x remote)) local
    @ List.filter (fun x -> not (List.mem x local)) remote)

let kernel_tests =
  [
    qtest "reconcile recovers the symmetric difference" ~count:60
      QCheck2.Gen.(
        pair
          (list_size (int_bound 40) (int_range 1 0xffffff))
          (list_size (int_bound 40) (int_range 1 0xffffff)))
      (fun (a, b) ->
        let local = List.sort_uniq compare a in
        let remote = List.sort_uniq compare b in
        let _, diff = Partitioned.reconcile ~capacity:8 ~local ~remote () in
        List.sort compare diff = symmetric_difference local remote);
    qtest "reconcile_monolithic recovers a difference within capacity"
      ~count:60
      QCheck2.Gen.(
        pair
          (list_size (int_bound 20) (int_range 1 0xffffff))
          (list_size (int_bound 20) (int_range 1 0xffffff)))
      (fun (a, b) ->
        let local = List.sort_uniq compare a in
        let remote = List.sort_uniq compare b in
        let expected = symmetric_difference local remote in
        let _, diff =
          Partitioned.reconcile_monolithic ~capacity:32 ~local ~remote ()
        in
        List.length expected > 32
        || Option.map (List.sort compare) diff = Some expected);
    (* The accumulation kernels against the definitional loop. *)
    qtest "accum_powers = naive power loop" ~count:120
      QCheck2.Gen.(triple (int_bound 40) elt_gen elt_gen)
      (fun (n, base, step) ->
        let s1 = Array.init (n + 2) (fun i -> i * 7) in
        let s2 = Array.copy s1 in
        Gf2m.accum_powers ~base ~step s1 ~n;
        let p = ref base in
        for i = 0 to n - 1 do
          s2.(i) <- s2.(i) lxor !p;
          if i < n - 1 then p := Gf2m.mul !p step
        done;
        s1 = s2);
    qtest "accum_powers2 = two accum_powers" ~count:120
      QCheck2.Gen.(
        pair (int_bound 40)
          (array_size (return 4) (int_bound 0xffffffff)))
      (fun (n, args) ->
        let b1 = args.(0) land Gf2m.mask
        and s1v = args.(1) land Gf2m.mask
        and b2 = args.(2) land Gf2m.mask
        and s2v = args.(3) land Gf2m.mask in
        let a1 = Array.init (n + 2) (fun i -> i * 31) in
        let a2 = Array.copy a1 in
        Gf2m.accum_powers2 ~base1:b1 ~step1:s1v ~base2:b2 ~step2:s2v a1 ~n;
        Gf2m.accum_powers ~base:b1 ~step:s1v a2 ~n;
        Gf2m.accum_powers ~base:b2 ~step:s2v a2 ~n;
        a1 = a2);
    qtest "add_all pairing = iterated add" ~count:100
      QCheck2.Gen.(
        pair (int_range 1 40)
          (list_size (int_bound 9) (int_range 1 0xffffff)))
      (fun (capacity, elems) ->
        let wire s =
          let w = Lo_codec.Writer.create () in
          Sketch.encode w s;
          Lo_codec.Writer.contents w
        in
        let s1 = Sketch.create ~capacity () in
        Sketch.add_all s1 elems;
        let s2 = Sketch.create ~capacity () in
        List.iter (Sketch.add s2) elems;
        wire s1 = wire s2);
  ]

let () =
  Alcotest.run "lo_sketch"
    [
      ("gf2m", field_tests);
      ("gf32-ref", ref_tests);
      ("poly", poly_tests);
      ("poly-ref", poly_ref_tests);
      ("berlekamp-massey", bm_tests);
      ("sketch", sketch_tests);
      ("bch-bound", bch_bound_tests);
      ("partitioned", partitioned_tests);
      ("kernels", kernel_tests);
      ("strata", strata_tests);
      ("properties", prop_tests);
    ]
