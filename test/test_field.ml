(* The ten-limb field, the fixed-n scalar reduction and the GLV split,
   each pinned against a slow reference: the 16-bit-limb field of
   [Field_ref], and its generic (bit-serial division) modular
   arithmetic for scalars. *)

open Lo_crypto
module R = Field_ref

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let u256 = Alcotest.testable Uint256.pp Uint256.equal
let hex = Uint256.of_hex
let p = Secp256k1.p
let n = Secp256k1.n
let fe a = Fe.of_bytes_be (Uint256.to_bytes_be a)
let of_fe a = Uint256.of_bytes_be (Fe.to_bytes_be a)
let bytes32 = QCheck2.Gen.(string_size ~gen:char (return 32))

(* Edge values, including encodings in [p, 2^256) that arrive
   unreduced through [of_bytes_be]. *)
let edges =
  [
    Uint256.zero;
    Uint256.one;
    Uint256.of_int 2;
    hex "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2e";
    p;
    hex "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc30";
    hex "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff";
    hex "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe";
    hex "1000003d1";
    hex "3ffffff";
    hex "4000000";
    hex "ffffffffffffffffffffffffffffffff";
  ]

let gen_elt =
  QCheck2.Gen.(
    frequency
      [
        (6, map Uint256.of_bytes_be bytes32);
        (2, oneofl edges);
        (* just above p *)
        ( 1,
          map (fun k -> R.wrap_add p (Uint256.of_int k)) (int_bound 0xFFFFFFFF)
        );
      ])

let gen_pair = QCheck2.Gen.pair gen_elt gen_elt

let field_tests =
  [
    qtest "mul = reference" gen_pair (fun (a, b) ->
        let r = Fe.create () in
        Fe.mul r (fe a) (fe b);
        Uint256.equal (of_fe r) (R.fmul a b));
    qtest "sqr = reference" gen_elt (fun a ->
        let r = Fe.create () in
        Fe.sqr r (fe a);
        Uint256.equal (of_fe r) (R.fsqr a));
    qtest "add = reference" gen_pair (fun (a, b) ->
        let r = Fe.create () in
        Fe.add r (fe a) (fe b);
        Uint256.equal (of_fe r) (R.fadd a b));
    qtest "sub = reference" gen_pair (fun (a, b) ->
        let r = Fe.create () in
        Fe.sub r (fe a) (fe b);
        Uint256.equal (of_fe r) (R.fsub a b));
    qtest "neg = reference" gen_elt (fun a ->
        let r = Fe.create () in
        Fe.neg r (fe a) 1;
        Uint256.equal (of_fe r) (R.fneg a));
    qtest "inv = reference" ~count:60 gen_elt (fun a ->
        let r = Fe.create () in
        Fe.inv r (fe a);
        if Uint256.is_zero (R.canon a) then Uint256.is_zero (of_fe r)
        else Uint256.equal (of_fe r) (R.finv a));
    qtest "sqrt = reference" ~count:60 gen_elt (fun a ->
        let r = Fe.create () in
        let ok = Fe.sqrt r (fe a) in
        match R.fsqrt a with
        | Some root -> ok && Uint256.equal (of_fe r) root
        | None -> not ok);
    qtest "sqrt of a square" ~count:60 gen_elt (fun a ->
        let sq = Fe.create () and r = Fe.create () in
        Fe.sqr sq (fe a);
        Fe.sqrt r sq
        && (Uint256.equal (of_fe r) (R.canon a)
           || Uint256.equal (of_fe r) (R.fneg a)));
    qtest "is_zero and equal" gen_pair (fun (a, b) ->
        Fe.is_zero (fe a) = Uint256.is_zero (R.canon a)
        && Fe.equal (fe a) (fe b) = Uint256.equal (R.canon a) (R.canon b));
  ]

(* Lazy inputs: raw limbs up to a magnitude's bound, as the point
   formulas leave them before any carry. [mul]/[sqr] take magnitude 4,
   [sub]'s subtrahend magnitude 8, and [normalize] anything the
   formulas produce. *)
let bound m i = 2 * m * if i = 9 then 0x3FFFFF else 0x3FFFFFF

let gen_lazy m =
  QCheck2.Gen.(
    frequency
      [
        (1, return (Array.init 10 (bound m)));
        ( 3,
          map Array.of_list
            (flatten_l (List.init 10 (fun i -> int_bound (bound m i)))) );
      ])

(* Operands of [is_zero] and [equal] at magnitude <= 8, zero-heavy:
   random limbs, the limb patterns k p for k <= 16 (0, p, and every
   2(m+1) p that [neg] leaves on a zero of magnitude m), [neg]'s output
   itself, k p off by d 2^(26 i) in one limb (never zero: 0 < |d| <
   2^22), a magnitude-1 value plus k p, and d 2^(26 i) alone. *)
let p_limbs =
  [| 0x3FFFC2F; 0x3FFFFBF; 0x3FFFFFF; 0x3FFFFFF; 0x3FFFFFF; 0x3FFFFFF;
     0x3FFFFFF; 0x3FFFFFF; 0x3FFFFFF; 0x3FFFFF |]

let times_p k = Array.map (fun x -> k * x) p_limbs
let plus_p a k = Array.map2 ( + ) a (times_p k)

let gen_mag8 =
  QCheck2.Gen.(
    frequency
      [
        (2, gen_lazy 8);
        (1, map times_p (int_bound 16));
        ( 1,
          map
            (fun m ->
              let r = Fe.create () in
              Fe.neg r (Fe.create ()) m;
              Fe.limbs r)
            (int_bound 7) );
        ( 1,
          map3
            (fun k i d ->
              let a = times_p k in
              a.(i) <- a.(i) + d;
              a)
            (int_range 1 15) (int_bound 9)
            (map2 (fun neg d -> if neg then -d else d) bool
               (int_range 1 0x3FFFFF)) );
        (1, map2 plus_p (gen_lazy 1) (int_bound 14));
        ( 1,
          map2
            (fun i d ->
              let a = Array.make 10 0 in
              a.(i) <- d;
              a)
            (int_bound 9) (int_range 1 0x3FFFFF) );
      ])

(* Pairs for [equal]: independent operands, two spellings of one value,
   and spellings of two values d 2^(26 i) apart (0 < d < 2^22). *)
let gen_equal_pair =
  QCheck2.Gen.(
    frequency
      [
        (1, pair gen_mag8 gen_mag8);
        ( 2,
          map3
            (fun a j k -> (plus_p a j, plus_p a k))
            (gen_lazy 1) (int_bound 14) (int_bound 14) );
        ( 1,
          map3
            (fun a (j, k) (i, d) ->
              let a' = Array.copy a in
              a'.(i) <- a'.(i) + d;
              (plus_p a j, plus_p a' k))
            (gen_lazy 1)
            (pair (int_bound 13) (int_bound 13))
            (pair (int_bound 9) (int_range 1 0x3FFFFF)) );
      ])

let lazy_tests =
  let value l = R.of_limbs26 l in
  [
    qtest "mul at magnitude 4 = reference"
      QCheck2.Gen.(pair (gen_lazy 4) (gen_lazy 4))
      (fun (a, b) ->
        let r = Fe.create () in
        Fe.mul r (Fe.of_limbs a) (Fe.of_limbs b);
        Uint256.equal (of_fe r) (R.fmul (value a) (value b)));
    qtest "sqr at magnitude 4 = reference" (gen_lazy 4) (fun a ->
        let r = Fe.create () in
        Fe.sqr r (Fe.of_limbs a);
        Uint256.equal (of_fe r) (R.fsqr (value a)));
    qtest "mul output is magnitude 1"
      QCheck2.Gen.(pair (gen_lazy 4) (gen_lazy 4))
      (fun (a, b) ->
        let r = Fe.create () in
        Fe.mul r (Fe.of_limbs a) (Fe.of_limbs b);
        let l = Fe.limbs r in
        Array.for_all Fun.id
          (Array.mapi (fun i x -> x >= 0 && x <= bound 1 i) l));
    qtest "sub of magnitude 8 = reference"
      QCheck2.Gen.(pair (gen_lazy 8) (gen_lazy 8))
      (fun (a, b) ->
        let r = Fe.create () in
        Fe.sub r (Fe.of_limbs a) (Fe.of_limbs b);
        Uint256.equal (of_fe r) (R.fsub (value a) (value b)));
    qtest "normalize at magnitude 8 = reference" (gen_lazy 8) (fun a ->
        Uint256.equal (of_fe (Fe.of_limbs a)) (value a));
    qtest "is_zero at magnitude 8" gen_mag8 (fun a ->
        List.for_all (fun i -> a.(i) >= 0 && a.(i) <= bound 8 i)
          (List.init 10 Fun.id)
        && Fe.is_zero (Fe.of_limbs a) = Uint256.is_zero (value a));
    qtest "equal at magnitude 8 = reference" gen_equal_pair (fun (a, b) ->
        Fe.equal (Fe.of_limbs a) (Fe.of_limbs b)
        = Uint256.equal (value a) (value b));
    Alcotest.test_case "limbs spelling p and 2p are zero" `Quick (fun () ->
        let pl = p_limbs in
        Alcotest.(check bool) "p" true (Fe.is_zero (Fe.of_limbs pl));
        Alcotest.(check bool) "2p" true
          (Fe.is_zero (Fe.of_limbs (Array.map (fun x -> 2 * x) pl)));
        Alcotest.check u256 "p normalises to 0" Uint256.zero
          (of_fe (Fe.of_limbs pl)));
  ]

(* ---------------- Scalars mod n ---------------- *)

let gen_wide =
  QCheck2.Gen.(
    frequency
      [
        (6, map Uint256.of_bytes_be bytes32);
        ( 1,
          oneofl
            [
              Uint256.zero;
              n;
              R.wrap_add n Uint256.one;
              hex
                "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff";
            ] );
      ])

(* [R.mod_reduce] and [R.mod_mul] are the generic modular arithmetic
   that [Uint256] exported as [mod_reduce] and [mod_mul]; the test
   names keep those names. *)
let reduce_ref a = R.mod_reduce ~modulus:n a

let scalar_tests =
  [
    qtest "reduce = Uint256.mod_reduce" gen_wide (fun a ->
        Uint256.equal (Scalar.reduce a) (reduce_ref a));
    qtest "mul = Uint256.mod_mul" ~count:100
      QCheck2.Gen.(pair gen_wide gen_wide)
      (fun (a, b) ->
        Uint256.equal (Scalar.mul a b)
          (R.mod_mul ~modulus:n (reduce_ref a) (reduce_ref b)));
    qtest "comb columns hold the scalar's bits" ~count:100
      QCheck2.Gen.(pair gen_wide (oneofl [ 1; 2; 4; 8; 16 ]))
      (fun (k, teeth) ->
        let cols = Scalar.comb_columns ~teeth k in
        let spacing = 256 / teeth in
        Array.length cols = spacing
        && List.for_all
             (fun pos ->
               (cols.(pos mod spacing) lsr (pos / spacing)) land 1 = 1
               = Uint256.bit k pos)
             (List.init 256 Fun.id)
        && Array.for_all (fun c -> c < 1 lsl teeth) cols);
    qtest "wnaf digits rebuild the scalar" ~count:100
      QCheck2.Gen.(pair gen_wide (int_range 2 8))
      (fun (k, w) ->
        let k = reduce_ref k in
        let d = Scalar.wnaf ~w k in
        let acc = ref Uint256.zero in
        for i = Array.length d - 1 downto 0 do
          acc := Uint256.mod_add ~modulus:n !acc !acc;
          let v = Uint256.of_int (abs d.(i)) in
          acc :=
            if d.(i) >= 0 then Uint256.mod_add ~modulus:n !acc v
            else Uint256.mod_sub ~modulus:n !acc v
        done;
        let sparse = ref true in
        Array.iteri
          (fun i x ->
            if x <> 0 then begin
              if x land 1 = 0 || abs x >= 1 lsl (w - 1) then sparse := false;
              for j = i + 1 to min (Array.length d - 1) (i + w - 1) do
                if d.(j) <> 0 then sparse := false
              done
            end)
          d;
        !sparse && Uint256.equal !acc k);
  ]

(* ---------------- GLV ---------------- *)

let cube_mod ~modulus x =
  R.mod_mul ~modulus (R.mod_mul ~modulus x x) x

let glv_tests =
  let lambda = Scalar.lambda and beta = Secp256k1.beta in
  let two128 = hex "100000000000000000000000000000000" in
  [
    Alcotest.test_case "beta^3 = 1 (mod p), beta <> 1" `Quick (fun () ->
        Alcotest.check u256 "cube" Uint256.one (cube_mod ~modulus:p beta);
        Alcotest.(check bool)
          "non-trivial" false
          (Uint256.equal beta Uint256.one));
    Alcotest.test_case "lambda^3 = 1 (mod n), lambda <> 1" `Quick (fun () ->
        Alcotest.check u256 "cube" Uint256.one (cube_mod ~modulus:n lambda);
        Alcotest.(check bool)
          "non-trivial" false
          (Uint256.equal lambda Uint256.one));
    Alcotest.test_case "lambda G = (beta Gx, Gy)" `Quick (fun () ->
        match
          ( Secp256k1.to_affine (Secp256k1.mul lambda Secp256k1.g),
            Secp256k1.to_affine Secp256k1.g )
        with
        | Some (x, y), Some (gx, gy) ->
            Alcotest.check u256 "x" (R.mod_mul ~modulus:p beta gx) x;
            Alcotest.check u256 "y" gy y
        | _ -> Alcotest.fail "infinity");
    qtest "split: k = k1 + lambda k2 (mod n), |k1|, |k2| < 2^129" ~count:300
      QCheck2.Gen.(
        frequency
          [
            (6, map reduce_ref (map Uint256.of_bytes_be bytes32));
            ( 1,
              oneofl
                [
                  Uint256.zero;
                  Uint256.one;
                  Uint256.mod_sub ~modulus:n Uint256.zero Uint256.one;
                  lambda;
                  two128;
                  R.wrap_add two128 Uint256.one;
                  hex "ffffffffffffffffffffffffffffffff";
                  hex "80000000000000000000000000000000";
                ] );
          ])
      (fun k ->
        let (neg1, a1), (neg2, a2) = Scalar.split_lambda k in
        let signed neg a =
          if neg then Uint256.mod_sub ~modulus:n Uint256.zero a else a
        in
        let k' =
          Uint256.mod_add ~modulus:n (signed neg1 a1)
            (R.mod_mul ~modulus:n lambda (signed neg2 a2))
        in
        Uint256.num_bits a1 <= 129
        && Uint256.num_bits a2 <= 129
        && Uint256.equal k k');
  ]

(* ---------------- Fast point paths against the ladder ---------------- *)

let point_tests =
  let scalar =
    QCheck2.Gen.map (fun b -> reduce_ref (Uint256.of_bytes_be b)) bytes32
  in
  (* Scalars whose ladders are empty, one digit long, or end in a
     carry: 0, 1, n - 1, lambda, 2^128 and its neighbours. *)
  let edge_scalar =
    QCheck2.Gen.(
      frequency
        [
          (3, scalar);
          ( 2,
            oneofl
              [
                Uint256.zero;
                Uint256.one;
                Uint256.mod_sub ~modulus:n Uint256.zero Uint256.one;
                Scalar.lambda;
                hex "100000000000000000000000000000000";
                hex "ffffffffffffffffffffffffffffffff";
                hex "100000000000000000000000000000001";
              ] );
        ])
  in
  [
    qtest "mul_g = reference ladder" ~count:20 edge_scalar (fun k ->
        Secp256k1.equal (Secp256k1.mul_g k) (Secp256k1.mul k Secp256k1.g));
    qtest "mul_add = reference ladder" ~count:30
      QCheck2.Gen.(triple edge_scalar edge_scalar scalar)
      (fun (a, b, k) ->
        let pt = Secp256k1.mul_g k in
        Secp256k1.equal
          (Secp256k1.mul_add ~g_scalar:a b pt)
          (Secp256k1.add (Secp256k1.mul a Secp256k1.g) (Secp256k1.mul b pt)));
    (* Both tables of P, each with G on its comb. Column edges: 2^255
       is column 31's top tooth alone, and 2^256 - 1 sets every column
       to 255. P = G and P = -G with equal scalars make the accumulator
       meet an equal or opposite entry (finish_add's doubling and
       infinity branches). *)
    qtest "comb and wNAF mul_add_precomp = reference ladder" ~count:40
      QCheck2.Gen.(
        let comb_scalar =
          frequency
            [
              (3, scalar);
              ( 2,
                oneofl
                  [
                    Uint256.zero;
                    Uint256.one;
                    Uint256.mod_sub ~modulus:n Uint256.zero Uint256.one;
                    hex
                      "8000000000000000000000000000000000000000000000000000000000000000";
                    hex
                      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff";
                  ] );
            ]
        in
        let base =
          frequency
            [
              (2, map Secp256k1.mul_g scalar);
              (1, return Secp256k1.g);
              (1, return (Secp256k1.neg Secp256k1.g));
            ]
        in
        let scalars =
          frequency
            [
              (2, pair comb_scalar comb_scalar);
              (1, map (fun a -> (a, a)) comb_scalar);
            ]
        in
        pair scalars base)
      (fun ((a, b), pt) ->
        let expected =
          Secp256k1.add (Secp256k1.mul a Secp256k1.g) (Secp256k1.mul b pt)
        in
        List.for_all
          (fun tbl ->
            Secp256k1.equal
              (Secp256k1.mul_add_precomp ~g_scalar:a b (tbl pt))
              expected)
          [ Secp256k1.comb; Secp256k1.precompute ]);
    qtest "has_x = affine x" ~count:20 QCheck2.Gen.(pair scalar bytes32)
      (fun (k, other) ->
        let pt = Secp256k1.add (Secp256k1.mul_g k) Secp256k1.g in
        match Secp256k1.to_affine pt with
        | Some (x, _) ->
            Secp256k1.has_x pt x
            && Secp256k1.has_x pt (Uint256.of_bytes_be other)
               = Uint256.equal x (Uint256.of_bytes_be other)
        | None -> false);
  ]

(* [Signer.schnorr]'s verify_many decodes each distinct id once per
   call: repeated good ids, repeated undecodable ids and a corrupted
   signature must still give the per-triple answers. *)
let signer_tests =
  [
    Alcotest.test_case "verify_many with repeated and undecodable ids" `Quick
      (fun () ->
        let a = Signer.make Signer.schnorr ~seed:"memo-a" in
        let b = Signer.make Signer.schnorr ~seed:"memo-b" in
        let junk = "\x05" ^ String.make 32 '\x01' in
        let triple s i =
          let msg = Printf.sprintf "memo-%d" i in
          (Signer.id s, msg, Signer.sign s msg)
        in
        let undecodable i =
          (junk, Printf.sprintf "memo-%d" i, String.make 64 '\x00')
        in
        (* signed by a, presented under b's id *)
        let wrong_key =
          let _, msg, signature = triple a 6 in
          (Signer.id b, msg, signature)
        in
        let sigs =
          [|
            triple a 0;
            triple b 1;
            triple a 2;
            undecodable 3;
            triple a 4;
            undecodable 5;
            wrong_key;
          |]
        in
        let expected =
          List.filter
            (fun i ->
              let id, msg, signature = sigs.(i) in
              not (Signer.verify Signer.schnorr ~id ~msg ~signature))
            (List.init (Array.length sigs) Fun.id)
        in
        Alcotest.(check (list int)) "reference" [ 3; 5; 6 ] expected;
        Alcotest.(check (list int)) "verify_many" expected
          (Signer.verify_many Signer.schnorr sigs));
  ]

let () =
  Alcotest.run "lo_field"
    [
      ("field", field_tests);
      ("field-lazy", lazy_tests);
      ("scalar", scalar_tests);
      ("glv", glv_tests);
      ("fast-paths", point_tests);
      ("signer", signer_tests);
    ]
