(* The ten-limb field, the fixed-n scalar arithmetic, the GLV split and
   the canonical coordinate decoder, each pinned against a slow
   reference: the 16-bit-limb naturals of [Field_ref], its field mod p,
   and its generic (bit-serial division) modular arithmetic for
   scalars. Values cross between the two as 32-byte encodings. *)

open Lo_crypto
module R = Field_ref

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let u256 = Alcotest.testable R.pp R.equal
let hex = R.of_hex
let p = R.p
let n = R.n
let fe a = Fe.of_bytes_be (R.to_bytes_be a)
let of_fe a = R.of_bytes_be (Fe.to_bytes_be a)
let sc a = Scalar.of_bytes_be (R.to_bytes_be a)
let of_sc k = R.of_bytes_be (Scalar.to_bytes_be k)
let max256 = hex (String.make 64 'f')
let bytes32 = QCheck2.Gen.(string_size ~gen:char (return 32))

(* Edge values, including encodings in [p, 2^256) that arrive
   unreduced through [of_bytes_be]. *)
let edges =
  [
    R.zero;
    R.one;
    R.of_int 2;
    hex "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2e";
    p;
    hex "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc30";
    max256;
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
        (6, map R.of_bytes_be bytes32);
        (2, oneofl edges);
        (* just above p *)
        (1, map (fun k -> R.wrap_add p (R.of_int k)) (int_bound 0xFFFFFFFF));
      ])

let gen_pair = QCheck2.Gen.pair gen_elt gen_elt

let field_tests =
  [
    qtest "mul = reference" gen_pair (fun (a, b) ->
        let r = Fe.create () in
        Fe.mul r (fe a) (fe b);
        R.equal (of_fe r) (R.fmul a b));
    qtest "sqr = reference" gen_elt (fun a ->
        let r = Fe.create () in
        Fe.sqr r (fe a);
        R.equal (of_fe r) (R.fsqr a));
    qtest "add = reference" gen_pair (fun (a, b) ->
        let r = Fe.create () in
        Fe.add r (fe a) (fe b);
        R.equal (of_fe r) (R.fadd a b));
    qtest "sub = reference" gen_pair (fun (a, b) ->
        let r = Fe.create () in
        Fe.sub r (fe a) (fe b);
        R.equal (of_fe r) (R.fsub a b));
    qtest "neg = reference" gen_elt (fun a ->
        let r = Fe.create () in
        Fe.neg r (fe a) 1;
        R.equal (of_fe r) (R.fneg a));
    qtest "inv = reference" ~count:60 gen_elt (fun a ->
        let r = Fe.create () in
        Fe.inv r (fe a);
        if R.is_zero (R.canon a) then R.is_zero (of_fe r)
        else R.equal (of_fe r) (R.finv a));
    qtest "sqrt = reference" ~count:60 gen_elt (fun a ->
        let r = Fe.create () in
        let ok = Fe.sqrt r (fe a) in
        match R.fsqrt a with
        | Some root -> ok && R.equal (of_fe r) root
        | None -> not ok);
    qtest "sqrt of a square" ~count:60 gen_elt (fun a ->
        let sq = Fe.create () and r = Fe.create () in
        Fe.sqr sq (fe a);
        Fe.sqrt r sq
        && (R.equal (of_fe r) (R.canon a)
           || R.equal (of_fe r) (R.fneg a)));
    qtest "is_zero and equal" gen_pair (fun (a, b) ->
        Fe.is_zero (fe a) = R.is_zero (R.canon a)
        && Fe.equal (fe a) (fe b) = R.equal (R.canon a) (R.canon b));
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
        R.equal (of_fe r) (R.fmul (value a) (value b)));
    qtest "sqr at magnitude 4 = reference" (gen_lazy 4) (fun a ->
        let r = Fe.create () in
        Fe.sqr r (Fe.of_limbs a);
        R.equal (of_fe r) (R.fsqr (value a)));
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
        R.equal (of_fe r) (R.fsub (value a) (value b)));
    qtest "normalize at magnitude 8 = reference" (gen_lazy 8) (fun a ->
        R.equal (of_fe (Fe.of_limbs a)) (value a));
    qtest "is_zero at magnitude 8" gen_mag8 (fun a ->
        List.for_all (fun i -> a.(i) >= 0 && a.(i) <= bound 8 i)
          (List.init 10 Fun.id)
        && Fe.is_zero (Fe.of_limbs a) = R.is_zero (value a));
    qtest "equal at magnitude 8 = reference" gen_equal_pair (fun (a, b) ->
        Fe.equal (Fe.of_limbs a) (Fe.of_limbs b)
        = R.equal (value a) (value b));
    Alcotest.test_case "limbs spelling p and 2p are zero" `Quick (fun () ->
        let pl = p_limbs in
        Alcotest.(check bool) "p" true (Fe.is_zero (Fe.of_limbs pl));
        Alcotest.(check bool) "2p" true
          (Fe.is_zero (Fe.of_limbs (Array.map (fun x -> 2 * x) pl)));
        Alcotest.check u256 "p normalises to 0" R.zero
          (of_fe (Fe.of_limbs pl)));
  ]

(* ---------------- Scalars mod n ---------------- *)

let scalar_edges =
  [ R.zero; R.one; R.mod_sub ~modulus:n R.zero R.one; n; R.wrap_add n R.one;
    max256 ]

let gen_wide =
  QCheck2.Gen.(
    frequency [ (6, map R.of_bytes_be bytes32); (1, oneofl scalar_edges) ])

(* [R.mod_reduce] and [R.mod_mul] are the generic modular arithmetic
   that the library once exported as [Uint256.mod_reduce] and
   [mod_mul]; the test names keep those names. *)
let reduce_ref a = R.mod_reduce ~modulus:n a
let gen_reduced = QCheck2.Gen.map reduce_ref gen_wide
let sign x = Int.compare x 0

let scalar_tests =
  [
    qtest "reduce = Uint256.mod_reduce" gen_wide (fun a ->
        R.equal (of_sc (Scalar.reduce (sc a))) (reduce_ref a));
    qtest "mul = Uint256.mod_mul" ~count:100
      QCheck2.Gen.(pair gen_wide gen_wide)
      (fun (a, b) ->
        R.equal (of_sc (Scalar.mul (sc a) (sc b))) (R.mod_mul ~modulus:n a b));
    qtest "add = reference"
      QCheck2.Gen.(pair gen_reduced gen_reduced)
      (fun (a, b) ->
        R.equal (of_sc (Scalar.add (sc a) (sc b))) (R.mod_add ~modulus:n a b));
    qtest "neg = reference" gen_reduced (fun a ->
        R.equal (of_sc (Scalar.neg (sc a))) (R.mod_sub ~modulus:n R.zero a));
    qtest "encoding, compare and bits = reference"
      QCheck2.Gen.(pair gen_wide gen_wide)
      (fun (a, b) ->
        let k = sc a in
        R.equal (of_sc k) a
        && sign (Scalar.compare k (sc b)) = sign (R.compare a b)
        && Scalar.is_zero k = R.is_zero a
        && Scalar.num_bits k = R.num_bits a
        && List.for_all
             (fun i -> Scalar.bit k i = R.bit a i)
             (List.init 260 Fun.id));
    qtest "comb columns hold the scalar's bits" ~count:100
      QCheck2.Gen.(pair gen_wide (oneofl [ 1; 2; 4; 8; 16 ]))
      (fun (k, teeth) ->
        let cols = Scalar.comb_columns ~teeth (sc k) in
        let spacing = 256 / teeth in
        let rebuilt = Array.make 16 0 in
        Array.iteri
          (fun j c ->
            for t = 0 to teeth - 1 do
              let pos = j + (t * spacing) in
              if (c lsr t) land 1 = 1 then
                rebuilt.(pos / 16) <- rebuilt.(pos / 16) lor (1 lsl (pos mod 16))
            done)
          cols;
        Array.length cols = spacing
        && Array.for_all (fun c -> c >= 0 && c < 1 lsl teeth) cols
        && R.equal rebuilt k);
    (* Exact (unbounded) Horner sums, so a stray bit past 255 shows. *)
    qtest "windows rebuild the scalar" ~count:100
      QCheck2.Gen.(pair gen_wide (int_range 1 16))
      (fun (k, width) ->
        let d = Scalar.windows ~width (sc k) in
        let acc = ref R.zero in
        for i = Array.length d - 1 downto 0 do
          for _ = 1 to width do
            acc := R.add !acc !acc
          done;
          acc := R.add !acc (R.of_int d.(i))
        done;
        Array.length d = (256 + width - 1) / width
        && Array.for_all (fun x -> x >= 0 && x < 1 lsl width) d
        && R.equal !acc k);
    qtest "wnaf digits rebuild the scalar" ~count:100
      QCheck2.Gen.(pair gen_reduced (int_range 2 8))
      (fun (k, w) ->
        let d = Scalar.wnaf ~w (sc k) in
        let acc = ref R.zero in
        for i = Array.length d - 1 downto 0 do
          acc := R.mod_add ~modulus:n !acc !acc;
          let v = R.of_int (abs d.(i)) in
          acc :=
            if d.(i) >= 0 then R.mod_add ~modulus:n !acc v
            else R.mod_sub ~modulus:n !acc v
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
        !sparse
        && Array.length d = R.num_bits k + 1
        && R.equal !acc k);
  ]

(* ---------------- GLV ---------------- *)

let cube_mod ~modulus x =
  R.mod_mul ~modulus (R.mod_mul ~modulus x x) x

let glv_tests =
  let lambda = of_sc Scalar.lambda and beta = of_fe Secp256k1.beta in
  let two128 = hex "100000000000000000000000000000000" in
  [
    Alcotest.test_case "beta^3 = 1 (mod p), beta <> 1" `Quick (fun () ->
        Alcotest.check u256 "cube" R.one (cube_mod ~modulus:p beta);
        Alcotest.(check bool) "non-trivial" false (R.equal beta R.one));
    Alcotest.test_case "lambda^3 = 1 (mod n), lambda <> 1" `Quick (fun () ->
        Alcotest.check u256 "cube" R.one (cube_mod ~modulus:n lambda);
        Alcotest.(check bool) "non-trivial" false (R.equal lambda R.one));
    Alcotest.test_case "lambda G = (beta Gx, Gy)" `Quick (fun () ->
        match
          ( Secp256k1.to_affine (Secp256k1.mul Scalar.lambda Secp256k1.g),
            Secp256k1.to_affine Secp256k1.g )
        with
        | Some (x, y), Some (gx, gy) ->
            Alcotest.check u256 "x" (R.mod_mul ~modulus:p beta (of_fe gx))
              (of_fe x);
            Alcotest.check u256 "y" (of_fe gy) (of_fe y)
        | _ -> Alcotest.fail "infinity");
    qtest "split: k = k1 + lambda k2 (mod n), |k1|, |k2| < 2^129" ~count:300
      QCheck2.Gen.(
        frequency
          [
            (6, map reduce_ref (map R.of_bytes_be bytes32));
            ( 1,
              oneofl
                [
                  R.zero;
                  R.one;
                  R.mod_sub ~modulus:n R.zero R.one;
                  lambda;
                  two128;
                  R.wrap_add two128 R.one;
                  hex "ffffffffffffffffffffffffffffffff";
                  hex "80000000000000000000000000000000";
                ] );
          ])
      (fun k ->
        let (neg1, a1), (neg2, a2) = Scalar.split_lambda (sc k) in
        let signed neg a =
          if neg then R.mod_sub ~modulus:n R.zero (of_sc a) else of_sc a
        in
        let k' =
          R.mod_add ~modulus:n (signed neg1 a1)
            (R.mod_mul ~modulus:n lambda (signed neg2 a2))
        in
        Scalar.num_bits a1 <= 129
        && Scalar.num_bits a2 <= 129
        && R.equal k k');
  ]

(* ---------------- Fast point paths against the ladder ---------------- *)

let point_tests =
  let scalar =
    QCheck2.Gen.map (fun b -> sc (reduce_ref (R.of_bytes_be b))) bytes32
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
              (Scalar.lambda
              :: List.map sc
                   [
                     R.zero;
                     R.one;
                     R.mod_sub ~modulus:n R.zero R.one;
                     hex "100000000000000000000000000000000";
                     hex "ffffffffffffffffffffffffffffffff";
                     hex "100000000000000000000000000000001";
                   ]) );
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
                  (List.map sc
                     [
                       R.zero;
                       R.one;
                       R.mod_sub ~modulus:n R.zero R.one;
                       hex ("8" ^ String.make 63 '0');
                       max256;
                     ]) );
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
        | Some (x, _) -> (
            Secp256k1.has_x pt x
            &&
            match Fe.of_canonical_bytes other with
            | Some o -> Secp256k1.has_x pt o = (Fe.to_bytes_be x = other)
            | None -> R.compare (R.of_bytes_be other) p >= 0)
        | None -> false);
  ]

(* ---------------- Canonical coordinates ---------------- *)

let decodes a = Fe.of_canonical_bytes (R.to_bytes_be a)
let p_minus_1 =
  hex "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2e"

let p_plus_1 = R.wrap_add p R.one

(* A wire x or R.x of p or more must be refused before it reaches the
   field, where x + p and x are one element. *)
let canonical_tests =
  [
    Alcotest.test_case "of_canonical_bytes: p - 1 in; p, p + 1, 2^256 - 1 out"
      `Quick (fun () ->
        (match decodes p_minus_1 with
        | Some x -> Alcotest.check u256 "p - 1" p_minus_1 (of_fe x)
        | None -> Alcotest.fail "p - 1 rejected");
        List.iter
          (fun a -> Alcotest.(check bool) (R.to_hex a) true (decodes a = None))
          [ p; p_plus_1; max256 ]);
    qtest "of_canonical_bytes = reference" gen_elt (fun a ->
        match decodes a with
        | Some x -> R.compare a p < 0 && R.equal (of_fe x) a
        | None -> R.compare a p >= 0);
    Alcotest.test_case "decode_compressed rejects x + p for an on-curve x"
      `Quick (fun () ->
        let point x = Secp256k1.decode_compressed ("\x02" ^ R.to_bytes_be x) in
        let rec first k =
          if Option.is_some (point (R.of_int k)) then k else first (k + 1)
        in
        let k = first 1 in
        List.iter
          (fun x -> Alcotest.(check bool) (R.to_hex x) true (point x = None))
          [ R.wrap_add p (R.of_int k); p; p_plus_1; max256 ]);
    Alcotest.test_case "verify and batch_verify reject an R.x of p or more"
      `Quick (fun () ->
        let sk, pk = Schnorr.keypair_of_seed "canonical" in
        let signature = Schnorr.sign sk "m" in
        let with_rx x = R.to_bytes_be x ^ String.sub signature 32 32 in
        let bad = List.map with_rx [ p; p_plus_1; max256 ] in
        List.iter
          (fun signature ->
            Alcotest.(check bool) "verify" false
              (Schnorr.verify pk ~msg:"m" ~signature))
          bad;
        let sigs =
          Array.of_list (List.map (fun s -> (pk, "m", s)) (signature :: bad))
        in
        Alcotest.(check bool) "batch_verify" true
          (Schnorr.batch_verify sigs = `Invalid [ 1; 2; 3 ]));
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
      ("canonical", canonical_tests);
      ("signer", signer_tests);
    ]
