(* Tests for lo_crypto: SHA-256 against FIPS vectors, HMAC against
   RFC 4231, the DRBG, the 256-bit bignum, the secp256k1 group law,
   Schnorr signatures, the signer abstraction and Merkle proofs. *)

open Lo_crypto

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------------- Hex ---------------- *)

let hex_tests =
  [
    Alcotest.test_case "encode empty" `Quick (fun () ->
        check "empty" "" (Hex.encode ""));
    Alcotest.test_case "encode bytes" `Quick (fun () ->
        check "deadbeef" "deadbeef" (Hex.encode "\xde\xad\xbe\xef"));
    Alcotest.test_case "decode upper and lower" `Quick (fun () ->
        check "upper" "\xde\xad" (Hex.decode "DEAD");
        check "lower" "\xde\xad" (Hex.decode "dead"));
    Alcotest.test_case "decode rejects odd length" `Quick (fun () ->
        Alcotest.check_raises "odd" (Invalid_argument "Hex.decode: odd length")
          (fun () -> ignore (Hex.decode "abc")));
    Alcotest.test_case "decode rejects bad chars" `Quick (fun () ->
        check_bool "none" true (Hex.decode_opt "zz" = None));
    qtest "roundtrip" QCheck2.Gen.string (fun s ->
        Hex.decode (Hex.encode s) = s);
  ]

(* ---------------- SHA-256 ---------------- *)

let sha256_vector input expected () =
  check "digest" expected (Hex.encode (Sha256.digest input))

let sha256_tests =
  [
    Alcotest.test_case "empty" `Quick
      (sha256_vector ""
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    Alcotest.test_case "abc" `Quick
      (sha256_vector "abc"
         "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    Alcotest.test_case "two blocks" `Quick
      (sha256_vector "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
         "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    Alcotest.test_case "million a" `Slow
      (sha256_vector
         (String.make 1_000_000 'a')
         "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    Alcotest.test_case "exactly 64 bytes" `Quick (fun () ->
        let s = String.make 64 'x' in
        check_int "len" 32 (String.length (Sha256.digest s)));
    Alcotest.test_case "incremental = one-shot" `Quick (fun () ->
        let parts = [ "the quick "; ""; "brown fox"; " jumps" ] in
        check "equal"
          (Hex.encode (Sha256.digest (String.concat "" parts)))
          (Hex.encode (Sha256.digest_list parts)));
    qtest "chunking never matters"
      QCheck2.Gen.(pair (string_size (int_bound 300)) (int_bound 299))
      (fun (s, split) ->
        let split = min split (String.length s) in
        let a = String.sub s 0 split
        and b = String.sub s split (String.length s - split) in
        Sha256.digest_list [ a; b ] = Sha256.digest s);
    Alcotest.test_case "hash_to_int non-negative and stable" `Quick (fun () ->
        let v = Sha256.hash_to_int "stable" in
        check_bool "non-negative" true (v >= 0);
        check_int "stable" v (Sha256.hash_to_int "stable"));
    Alcotest.test_case "hash_to_int is the low 62 bits of the prefix" `Quick
      (fun () ->
        (* digest "stable" starts f379ccb92b911644; the top two bits of
           that big-endian word are dropped, not the bottom two.
           [Lo_net.Latency]'s matrix is derived from this value. *)
        check_int "pinned" 0x3379ccb92b911644 (Sha256.hash_to_int "stable"));
  ]

(* ---------------- SHA-256 against the reference kernel ---------------- *)

(* Feed [msg] through one context in the pieces the sorted [cuts] make,
   alternating [feed] and [feed_bytes]; the latter reads its piece out
   of a larger buffer at a non-zero offset. *)
let feed_in_pieces msg cuts =
  let ctx = Sha256.init () in
  let n = String.length msg in
  let cuts = List.sort_uniq Int.compare (List.map (fun c -> c mod (n + 1)) cuts) in
  let rec go i pos = function
    | [] -> go i pos [ n ]
    | cut :: rest ->
        let len = cut - pos in
        (if i land 1 = 0 then Sha256.feed ctx (String.sub msg pos len)
         else
           let b = Bytes.make (len + 7) '\xff' in
           Bytes.blit_string msg pos b 3 len;
           Sha256.feed_bytes ctx b 3 len);
        if cut < n then go (i + 1) cut rest
  in
  go 0 0 cuts;
  Sha256.finalize ctx

let sha256_ref_tests =
  [
    qtest ~count:500 "digest = reference digest"
      QCheck2.Gen.(string_size (int_bound 2048))
      (fun msg -> Sha256.digest msg = Sha256_ref.digest msg);
    qtest ~count:500 "feed/feed_bytes at any split = reference digest"
      QCheck2.Gen.(
        pair (string_size (int_bound 2048)) (list_size (int_bound 6) nat))
      (fun (msg, cuts) -> feed_in_pieces msg cuts = Sha256_ref.digest msg);
    Alcotest.test_case "fips 180-4 896-bit two-block message" `Quick
      (sha256_vector
         "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
         "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
    Alcotest.test_case "fips 180-4 million a, fed in uneven chunks" `Slow
      (fun () ->
        let msg = String.make 1_000_000 'a' in
        let cuts = List.init 40 (fun i -> (i * i * 617) + i) in
        check "digest"
          "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
          (Hex.encode (feed_in_pieces msg cuts)));
  ]

(* ---------------- HMAC (RFC 4231) ---------------- *)

let hmac_tests =
  [
    Alcotest.test_case "rfc4231 case 1" `Quick (fun () ->
        check "tag"
          "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
          (Hex.encode
             (Hmac.sha256 ~key:(String.make 20 '\x0b') "Hi There")));
    Alcotest.test_case "rfc4231 case 2" `Quick (fun () ->
        check "tag"
          "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
          (Hex.encode (Hmac.sha256 ~key:"Jefe" "what do ya want for nothing?")));
    Alcotest.test_case "rfc4231 case 3" `Quick (fun () ->
        check "tag"
          "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
          (Hex.encode
             (Hmac.sha256 ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'))));
    Alcotest.test_case "long key is hashed" `Quick (fun () ->
        check "tag"
          "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
          (Hex.encode
             (Hmac.sha256 ~key:(String.make 131 '\xaa')
                "Test Using Larger Than Block-Size Key - Hash Key First")));
    qtest "list = concat"
      QCheck2.Gen.(pair (small_string ~gen:char) (list_size (int_bound 5) (small_string ~gen:char)))
      (fun (key, parts) ->
        Hmac.sha256_list ~key parts = Hmac.sha256 ~key (String.concat "" parts));
  ]

(* ---------------- Uint256 ---------------- *)

let u256 = Alcotest.testable Uint256.pp Uint256.equal

let uint256_tests =
  let p17 = Uint256.of_int 17 in
  [
    Alcotest.test_case "of_int/to_hex" `Quick (fun () ->
        check "hex"
          "00000000000000000000000000000000000000000000000000000000000000ff"
          (Uint256.to_hex (Uint256.of_int 255)));
    Alcotest.test_case "hex roundtrip" `Quick (fun () ->
        let h = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff" in
        check "roundtrip" h (Uint256.to_hex (Uint256.of_hex h)));
    Alcotest.test_case "bytes roundtrip" `Quick (fun () ->
        let b = Lo_crypto.Sha256.digest "x" in
        check "roundtrip" (Hex.encode b)
          (Hex.encode (Uint256.to_bytes_be (Uint256.of_bytes_be b))));
    Alcotest.test_case "compare" `Quick (fun () ->
        check_bool "lt" true (Uint256.compare (Uint256.of_int 3) (Uint256.of_int 9) < 0);
        check_bool "eq" true (Uint256.compare p17 p17 = 0));
    Alcotest.test_case "add wraps mod 2^256" `Quick (fun () ->
        let max =
          Uint256.of_hex
            "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
        in
        Alcotest.check u256 "wrap" Uint256.zero (Field_ref.wrap_add max Uint256.one));
    Alcotest.test_case "mod_add/mod_sub inverse" `Quick (fun () ->
        let a = Uint256.of_int 12 and b = Uint256.of_int 9 in
        let s = Uint256.mod_add ~modulus:p17 a b in
        Alcotest.check u256 "sub back" a (Uint256.mod_sub ~modulus:p17 s b));
    Alcotest.test_case "mod_mul small" `Quick (fun () ->
        Alcotest.check u256 "12*9 mod 17 = 6" (Uint256.of_int 6)
          (Field_ref.mod_mul ~modulus:p17 (Uint256.of_int 12) (Uint256.of_int 9)));
    Alcotest.test_case "mod_pow fermat small prime" `Quick (fun () ->
        (* a^16 = 1 mod 17 for a != 0 *)
        for a = 1 to 16 do
          Alcotest.check u256 "fermat" Uint256.one
            (Field_ref.mod_pow ~modulus:p17 (Uint256.of_int a) (Uint256.of_int 16))
        done);
    Alcotest.test_case "mod_inv_prime" `Quick (fun () ->
        for a = 1 to 16 do
          let inv = Field_ref.mod_inv_prime ~modulus:p17 (Uint256.of_int a) in
          Alcotest.check u256 "a * a^-1 = 1" Uint256.one
            (Field_ref.mod_mul ~modulus:p17 (Uint256.of_int a) inv)
        done);
    Alcotest.test_case "num_bits" `Quick (fun () ->
        check_int "zero" 0 (Uint256.num_bits Uint256.zero);
        check_int "one" 1 (Uint256.num_bits Uint256.one);
        check_int "255" 8 (Uint256.num_bits (Uint256.of_int 255));
        check_int "256" 9 (Uint256.num_bits (Uint256.of_int 256)));
    qtest "mod ops match OCaml ints" ~count:300
      QCheck2.Gen.(triple (int_bound 1000000) (int_bound 1000000) (int_range 2 1000000))
      (fun (a, b, m) ->
        let ua = Uint256.of_int a and ub = Uint256.of_int b in
        let um = Uint256.of_int m in
        let ua = Field_ref.mod_reduce ~modulus:um ua in
        let ub = Field_ref.mod_reduce ~modulus:um ub in
        Uint256.equal
          (Field_ref.mod_mul ~modulus:um ua ub)
          (Uint256.of_int (a mod m * (b mod m) mod m))
        && Uint256.equal
             (Uint256.mod_add ~modulus:um ua ub)
             (Uint256.of_int (((a mod m) + (b mod m)) mod m)));
  ]

(* ---------------- secp256k1 ---------------- *)

let secp_tests =
  let open Secp256k1 in
  [
    Alcotest.test_case "generator on curve" `Quick (fun () ->
        match to_affine g with
        | Some (x, y) -> check_bool "on curve" true (is_on_curve ~x ~y)
        | None -> Alcotest.fail "generator is infinity");
    Alcotest.test_case "n * G = infinity" `Quick (fun () ->
        check_bool "order" true (is_infinity (mul n g)));
    Alcotest.test_case "2G = G + G" `Quick (fun () ->
        check_bool "double" true (equal (double g) (add g g)));
    Alcotest.test_case "(n-1)G = -G" `Quick (fun () ->
        let n1 = Uint256.mod_sub ~modulus:n Uint256.zero Uint256.one in
        check_bool "neg" true (equal (mul n1 g) (neg g)));
    Alcotest.test_case "addition commutes" `Quick (fun () ->
        let p2 = mul (Uint256.of_int 5) g and q = mul (Uint256.of_int 11) g in
        check_bool "comm" true (equal (add p2 q) (add q p2)));
    Alcotest.test_case "addition associates" `Quick (fun () ->
        let a = mul (Uint256.of_int 3) g
        and b = mul (Uint256.of_int 7) g
        and c = mul (Uint256.of_int 13) g in
        check_bool "assoc" true (equal (add (add a b) c) (add a (add b c))));
    Alcotest.test_case "scalar distributes" `Quick (fun () ->
        (* (5+11)G = 5G + 11G *)
        check_bool "distrib" true
          (equal
             (mul (Uint256.of_int 16) g)
             (add (mul (Uint256.of_int 5) g) (mul (Uint256.of_int 11) g))));
    Alcotest.test_case "P + (-P) = infinity" `Quick (fun () ->
        let p2 = mul (Uint256.of_int 42) g in
        check_bool "inverse" true (is_infinity (add p2 (neg p2))));
    Alcotest.test_case "infinity is neutral" `Quick (fun () ->
        let p2 = mul (Uint256.of_int 9) g in
        check_bool "left" true (equal (add infinity p2) p2);
        check_bool "right" true (equal (add p2 infinity) p2));
    Alcotest.test_case "compressed roundtrip" `Quick (fun () ->
        for k = 1 to 20 do
          let p2 = mul (Uint256.of_int k) g in
          match decode_compressed (encode_compressed p2) with
          | Some q -> check_bool "roundtrip" true (equal p2 q)
          | None -> Alcotest.fail "decode failed"
        done);
    Alcotest.test_case "decode rejects off-curve x" `Quick (fun () ->
        (* x = 5 has no square root for y^2 = x^3+7? If it decodes, the
           point must be on the curve. *)
        let bytes = "\x02" ^ Uint256.to_bytes_be (Uint256.of_int 5) in
        match decode_compressed bytes with
        | None -> ()
        | Some p2 -> (
            match to_affine p2 with
            | Some (x, y) -> check_bool "on curve" true (is_on_curve ~x ~y)
            | None -> ()));
    Alcotest.test_case "decode rejects junk" `Quick (fun () ->
        check_bool "short" true (decode_compressed "xx" = None);
        check_bool "bad prefix" true
          (decode_compressed ("\x05" ^ String.make 32 'a') = None));
    Alcotest.test_case "field sqrt roundtrip" `Quick (fun () ->
        let a = Uint256.of_int 1234567 in
        let sq = Field_ref.fmul a a in
        match Field_ref.fsqrt sq with
        | Some r -> check_bool "root" true (Uint256.equal (Field_ref.fmul r r) sq)
        | None -> Alcotest.fail "sqrt of a square failed");
  ]

(* ---------------- Schnorr ---------------- *)

let secp_property_tests =
  let open Secp256k1 in
  let small_scalar = QCheck2.Gen.int_range 1 100000 in
  [
    qtest "scalar homomorphism: (a+b)G = aG + bG" ~count:25
      QCheck2.Gen.(pair small_scalar small_scalar)
      (fun (a, b) ->
        equal
          (mul (Uint256.of_int (a + b)) g)
          (add (mul (Uint256.of_int a) g) (mul (Uint256.of_int b) g)));
    qtest "scalar composition: a(bG) = (ab)G" ~count:15
      QCheck2.Gen.(pair (int_range 1 1000) (int_range 1 1000))
      (fun (a, b) ->
        equal
          (mul (Uint256.of_int a) (mul (Uint256.of_int b) g))
          (mul (Uint256.of_int (a * b)) g));
    qtest "points stay on the curve" ~count:25 small_scalar (fun k ->
        match to_affine (mul (Uint256.of_int k) g) with
        | Some (x, y) -> is_on_curve ~x ~y
        | None -> false);
    Alcotest.test_case "zero scalar gives infinity" `Quick (fun () ->
        check_bool "zero" true (is_infinity (mul Uint256.zero g)));
    Alcotest.test_case "scalar reduction mod n" `Quick (fun () ->
        (* (n+5)G = 5G *)
        let unreduced = Field_ref.wrap_add n (Uint256.of_int 5) in
        check_bool "reduces" true
          (equal (mul unreduced g) (mul (Uint256.of_int 5) g)));
  ]

let uint256_edge_tests =
  [
    Alcotest.test_case "of_bytes_be wrong length rejected" `Quick (fun () ->
        Alcotest.check_raises "short"
          (Invalid_argument "Uint256.of_bytes_be: need 32 bytes") (fun () ->
            ignore (Uint256.of_bytes_be "abc")));
    Alcotest.test_case "of_hex too long rejected" `Quick (fun () ->
        Alcotest.check_raises "long" (Invalid_argument "Uint256.of_hex: too long")
          (fun () -> ignore (Uint256.of_hex (String.make 66 'f'))));
    Alcotest.test_case "mod_inv of zero rejected" `Quick (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Field_ref.mod_inv_prime: zero") (fun () ->
            ignore (Field_ref.mod_inv_prime ~modulus:(Uint256.of_int 17) Uint256.zero)));
    Alcotest.test_case "mod_pow exponent zero is one" `Quick (fun () ->
        let m = Uint256.of_int 97 in
        Alcotest.check u256 "one" Uint256.one
          (Field_ref.mod_pow ~modulus:m (Uint256.of_int 42) Uint256.zero));
    Alcotest.test_case "mul near 2^256 boundary" `Quick (fun () ->
        (* (2^128-1)^2 mod (2^255-19-ish prime stand-in): use secp's p *)
        let a =
          Uint256.of_hex "ffffffffffffffffffffffffffffffff"
        in
        let p = Secp256k1.p in
        let sq = Field_ref.mod_mul ~modulus:p a a in
        (* (2^128-1)^2 = 2^256 - 2^129 + 1; mod p = (2^256 mod p) - 2^129 + 1
           with 2^256 mod p = 2^32 + 977 *)
        let expected =
          Uint256.mod_sub ~modulus:p
            (Uint256.mod_add ~modulus:p
               (Uint256.of_hex "1000003d1")
               Uint256.one)
            (Uint256.of_hex "200000000000000000000000000000000")
        in
        Alcotest.check u256 "boundary" expected sq);
    Alcotest.test_case "bit indexing" `Quick (fun () ->
        let v = Uint256.of_int 0b1010 in
        check_bool "bit1" true (Uint256.bit v 1);
        check_bool "bit0" false (Uint256.bit v 0);
        check_bool "bit3" true (Uint256.bit v 3);
        check_bool "bit200" false (Uint256.bit v 200));
  ]

let schnorr_tests =
  [
    Alcotest.test_case "sign/verify roundtrip" `Quick (fun () ->
        let sk, pk = Schnorr.keypair_of_seed "seed" in
        let s = Schnorr.sign sk "message" in
        check_int "size" 64 (String.length s);
        check_bool "valid" true (Schnorr.verify pk ~msg:"message" ~signature:s));
    Alcotest.test_case "wrong message rejected" `Quick (fun () ->
        let sk, pk = Schnorr.keypair_of_seed "seed" in
        let s = Schnorr.sign sk "message" in
        check_bool "invalid" false (Schnorr.verify pk ~msg:"other" ~signature:s));
    Alcotest.test_case "wrong key rejected" `Quick (fun () ->
        let sk, _ = Schnorr.keypair_of_seed "seed-a" in
        let _, pk_b = Schnorr.keypair_of_seed "seed-b" in
        let s = Schnorr.sign sk "message" in
        check_bool "invalid" false (Schnorr.verify pk_b ~msg:"message" ~signature:s));
    Alcotest.test_case "tampered signature rejected" `Quick (fun () ->
        let sk, pk = Schnorr.keypair_of_seed "seed" in
        let s = Bytes.of_string (Schnorr.sign sk "message") in
        Bytes.set s 40 (Char.chr (Char.code (Bytes.get s 40) lxor 1));
        check_bool "invalid" false
          (Schnorr.verify pk ~msg:"message" ~signature:(Bytes.to_string s)));
    Alcotest.test_case "truncated signature rejected" `Quick (fun () ->
        let _, pk = Schnorr.keypair_of_seed "seed" in
        check_bool "invalid" false (Schnorr.verify pk ~msg:"m" ~signature:"short"));
    Alcotest.test_case "deterministic" `Quick (fun () ->
        let sk, _ = Schnorr.keypair_of_seed "seed" in
        check "same" (Hex.encode (Schnorr.sign sk "m")) (Hex.encode (Schnorr.sign sk "m")));
    Alcotest.test_case "pubkey bytes roundtrip" `Quick (fun () ->
        let _, pk = Schnorr.keypair_of_seed "seed" in
        let b = Schnorr.public_key_bytes pk in
        check_int "33 bytes" 33 (String.length b);
        match Schnorr.public_key_of_bytes b with
        | Some pk' ->
            check "same" (Hex.encode b) (Hex.encode (Schnorr.public_key_bytes pk'))
        | None -> Alcotest.fail "decode failed");
  ]

(* ---------------- Signer ---------------- *)

let signer_scheme_tests name scheme =
  [
    Alcotest.test_case (name ^ ": sign/verify") `Quick (fun () ->
        let s = Signer.make scheme ~seed:"node-1" in
        let tag = Signer.sign s "payload" in
        check_int "sig size" Signer.signature_size (String.length tag);
        check_int "id size" Signer.id_size (String.length (Signer.id s));
        check_bool "valid" true
          (Signer.verify scheme ~id:(Signer.id s) ~msg:"payload" ~signature:tag));
    Alcotest.test_case (name ^ ": cross-identity rejected") `Quick (fun () ->
        let a = Signer.make scheme ~seed:"a" and b = Signer.make scheme ~seed:"b" in
        let tag = Signer.sign a "payload" in
        check_bool "invalid" false
          (Signer.verify scheme ~id:(Signer.id b) ~msg:"payload" ~signature:tag));
    Alcotest.test_case (name ^ ": deterministic identity") `Quick (fun () ->
        let a = Signer.make scheme ~seed:"same" and b = Signer.make scheme ~seed:"same" in
        check "ids equal" (Hex.encode (Signer.id a)) (Hex.encode (Signer.id b)));
  ]

let signer_tests =
  signer_scheme_tests "schnorr" Signer.schnorr
  @ signer_scheme_tests "simulation" (Signer.simulation ())
  @ [
      Alcotest.test_case "simulation: unknown id fails" `Quick (fun () ->
          let scheme = Signer.simulation () in
          check_bool "invalid" false
            (Signer.verify scheme ~id:(String.make 33 'x') ~msg:"m"
               ~signature:(String.make 64 'y')));
    ]

(* ---------------- Merkle ---------------- *)

let merkle_tests =
  [
    Alcotest.test_case "empty root is stable" `Quick (fun () ->
        check "same" (Hex.encode (Merkle.root [])) (Hex.encode (Merkle.root [])));
    Alcotest.test_case "single leaf" `Quick (fun () ->
        let root = Merkle.root [ "a" ] in
        let proof = Merkle.proof [ "a" ] 0 in
        check_bool "verifies" true (Merkle.verify ~root ~leaf:"a" proof));
    Alcotest.test_case "proofs verify for all leaves" `Quick (fun () ->
        let leaves = List.init 7 (fun i -> Printf.sprintf "leaf-%d" i) in
        let root = Merkle.root leaves in
        List.iteri
          (fun i leaf ->
            let proof = Merkle.proof leaves i in
            check_bool "verifies" true (Merkle.verify ~root ~leaf proof))
          leaves);
    Alcotest.test_case "wrong leaf fails" `Quick (fun () ->
        let leaves = [ "a"; "b"; "c"; "d" ] in
        let root = Merkle.root leaves in
        let proof = Merkle.proof leaves 1 in
        check_bool "fails" false (Merkle.verify ~root ~leaf:"x" proof));
    Alcotest.test_case "wrong index fails" `Quick (fun () ->
        let leaves = [ "a"; "b"; "c"; "d" ] in
        let root = Merkle.root leaves in
        let proof = Merkle.proof leaves 1 in
        check_bool "fails" false (Merkle.verify ~root ~leaf:"a" proof));
    Alcotest.test_case "out of range raises" `Quick (fun () ->
        Alcotest.check_raises "range"
          (Invalid_argument "Merkle.proof: index out of range") (fun () ->
            ignore (Merkle.proof [ "a" ] 3)));
    Alcotest.test_case "order matters" `Quick (fun () ->
        check_bool "different" false
          (Merkle.root [ "a"; "b" ] = Merkle.root [ "b"; "a" ]));
    qtest "random trees verify" ~count:50
      QCheck2.Gen.(list_size (int_range 1 20) (small_string ~gen:char))
      (fun leaves ->
        let root = Merkle.root leaves in
        List.for_all
          (fun i ->
            Merkle.verify ~root ~leaf:(List.nth leaves i) (Merkle.proof leaves i))
          (List.init (List.length leaves) Fun.id));
  ]

(* ---------------- Batch verification ----------------

   The batched kernels are fast paths, not new semantics: every test
   here pins them to the one-at-a-time reference they replace. *)

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

(* What iterated [Schnorr.verify] says about a batch. *)
let reference_verdicts sigs =
  let bad = ref [] in
  Array.iteri
    (fun i (pk, msg, signature) ->
      if not (Schnorr.verify pk ~msg ~signature) then bad := i :: !bad)
    sigs;
  match List.rev !bad with [] -> `All_valid | l -> `Invalid l

let batch_tests =
  let keys =
    Array.init 6 (fun i -> Schnorr.keypair_of_seed (Printf.sprintf "bk%d" i))
  in
  let triple i msg =
    let sk, pk = keys.(i mod Array.length keys) in
    (pk, msg, Schnorr.sign sk msg)
  in
  [
    Alcotest.test_case "empty batch is all valid" `Quick (fun () ->
        check_bool "empty" true (Schnorr.batch_verify [||] = `All_valid));
    Alcotest.test_case "all valid across chunk boundaries" `Slow (fun () ->
        let sigs = Array.init 37 (fun i -> triple i (Printf.sprintf "m%d" i)) in
        check_bool "valid" true (Schnorr.batch_verify sigs = `All_valid));
    Alcotest.test_case "one invalid at every position names the culprit"
      `Slow (fun () ->
        let n = 9 in
        for bad = 0 to n - 1 do
          let sigs =
            Array.init n (fun i -> triple i (Printf.sprintf "m%d" i))
          in
          let pk, msg, s = sigs.(bad) in
          sigs.(bad) <- (pk, msg, flip_byte s 3);
          match Schnorr.batch_verify sigs with
          | `Invalid [ i ] -> check_int "culprit" bad i
          | `Invalid _ -> Alcotest.fail "blamed more than the culprit"
          | `All_valid -> Alcotest.fail "missed the invalid signature"
        done);
    qtest "batch_verify = iterated verify" ~count:12
      QCheck2.Gen.(list_size (int_bound 12) (pair (int_bound 5) (int_bound 3)))
      (fun spec ->
        let sigs =
          Array.of_list
            (List.mapi
               (fun i (k, corrupt) ->
                 let pk, msg, s = triple k (Printf.sprintf "msg-%d" i) in
                 if corrupt = 0 then (pk, msg, flip_byte s (i mod 64))
                 else (pk, msg, s))
               spec)
        in
        Schnorr.batch_verify sigs = reference_verdicts sigs);
    (* Key 0 signs [comb_min_uses] + 2 of the chunk's signatures, so it
       runs on a comb while keys 1-4 stay on wNAF tables; bisection
       halves drop key 0 below the threshold again. *)
    Alcotest.test_case "comb key mixed with wNAF keys: every culprit named"
      `Slow (fun () ->
        let comb_uses = Schnorr.comb_min_uses + 2 in
        let spec =
          List.init (comb_uses + 4) (fun i ->
              if i mod 3 = 1 && i / 3 < 4 then 1 + (i / 3) else 0)
        in
        let base =
          Array.of_list
            (List.mapi (fun i k -> triple k (Printf.sprintf "mix-%d" i)) spec)
        in
        check_int "comb key uses" comb_uses
          (List.length (List.filter (( = ) 0) spec));
        check_bool "clean" true (Schnorr.batch_verify base = `All_valid);
        List.iteri
          (fun bad k ->
            if k = 0 then begin
              let sigs = Array.copy base in
              let pk, msg, s = sigs.(bad) in
              sigs.(bad) <- (pk, msg, flip_byte s (bad mod 64));
              check_bool
                (Printf.sprintf "culprit %d" bad)
                true
                (Schnorr.batch_verify sigs = reference_verdicts sigs
                && reference_verdicts sigs = `Invalid [ bad ])
            end)
          spec);
    qtest "batch_verify = iterated verify, one key at or above the comb \
           threshold" ~count:10
      QCheck2.Gen.(
        list_size (int_range 8 32)
          (pair (frequency [ (3, return 0); (1, int_range 1 5) ]) (int_bound 7)))
      (fun spec ->
        let sigs =
          Array.of_list
            (List.mapi
               (fun i (k, corrupt) ->
                 let pk, msg, s = triple k (Printf.sprintf "thr-%d" i) in
                 if corrupt = 0 then (pk, msg, flip_byte s (i mod 64))
                 else (pk, msg, s))
               spec)
        in
        Schnorr.batch_verify sigs = reference_verdicts sigs);
  ]

(* The comb cache outlives calls, so these tests run sequences of calls
   and compare each verdict with the reference. Keys [ck<i>] sign whole
   chunks, so each is comb-eligible on first sight. *)
let comb_cache_tests =
  let keys =
    Array.init (Schnorr.comb_cache_size + 3) (fun i ->
        Schnorr.keypair_of_seed (Printf.sprintf "ck%d" i))
  in
  let triple i msg =
    let sk, pk = keys.(i) in
    (pk, msg, Schnorr.sign sk msg)
  in
  let pk_bytes i = Schnorr.public_key_bytes (snd keys.(i)) in
  (* A chunk of [uses] signatures by key [k], corrupting index [bad]. *)
  let chunk ?(bad = -1) ~uses k tag =
    Array.init uses (fun j ->
        let pk, msg, s = triple k (Printf.sprintf "%s-%d-%d" tag k j) in
        if j = bad then (pk, msg, flip_byte s (j mod 64)) else (pk, msg, s))
  in
  [
    Alcotest.test_case
      "keys past the cache bound: FIFO eviction, verdicts = verify" `Slow
      (fun () ->
        (* The cache as the [.mli] states it: a new key is appended and
           the oldest dropped past the bound; a hit changes nothing. *)
        let model = ref (Schnorr.cached_comb_keys ()) in
        let call k tag ~bad =
          let sigs = chunk ~bad ~uses:Schnorr.comb_min_uses k tag in
          check_bool tag true
            (Schnorr.batch_verify sigs = reference_verdicts sigs);
          check_bool (tag ^ ": kernel alone") (bad < 0)
            (Schnorr.kernel_accepts sigs);
          let b = pk_bytes k in
          if not (List.mem b !model) then begin
            model := !model @ [ b ];
            if List.length !model > Schnorr.comb_cache_size then
              model := List.tl !model
          end;
          check_bool (tag ^ ": cache") true
            (Schnorr.cached_comb_keys () = !model)
        in
        (* Two passes over more keys than the bound: every key of the
           second pass was evicted and gets its comb rebuilt. *)
        for round = 0 to 1 do
          for k = 0 to Array.length keys - 1 do
            let bad = if (k + round) mod 3 = 0 then k mod 8 else -1 in
            call k (Printf.sprintf "fifo%d-%d" round k) ~bad;
            if k >= 4 then
              call (k - 4) (Printf.sprintf "hit%d-%d" round k) ~bad:(-1)
          done
        done);
    (* A cached key keeps its comb in a chunk where it signs fewer than
       [comb_min_uses], and next to keys on wNAF tables. *)
    qtest "cached key below the threshold: batch_verify = iterated verify"
      ~count:10
      QCheck2.Gen.(
        list_size (int_range 1 12)
          (pair (frequency [ (2, return 0); (1, int_range 1 4) ]) (int_bound 5)))
      (fun spec ->
        ignore
          (Schnorr.batch_verify (chunk ~uses:Schnorr.comb_min_uses 0 "warm"));
        let sigs =
          Array.of_list
            (List.mapi
               (fun i (k, corrupt) ->
                 let pk, msg, s = triple k (Printf.sprintf "below-%d" i) in
                 if corrupt = 0 then (pk, msg, flip_byte s (i mod 64))
                 else (pk, msg, s))
               spec)
        in
        let expected = reference_verdicts sigs in
        Schnorr.batch_verify sigs = expected
        && Schnorr.kernel_accepts sigs = (expected = `All_valid));
    Alcotest.test_case "cached key: one invalid at every position of a chunk"
      `Slow (fun () ->
        let k = 1 in
        ignore (Schnorr.batch_verify (chunk ~uses:Schnorr.batch_chunk k "hot"));
        check_bool "cached" true
          (List.mem (pk_bytes k) (Schnorr.cached_comb_keys ()));
        check_bool "kernel alone, clean" true
          (Schnorr.kernel_accepts (chunk ~uses:Schnorr.batch_chunk k "hot"));
        for bad = 0 to Schnorr.batch_chunk - 1 do
          let sigs = chunk ~bad ~uses:Schnorr.batch_chunk k "hot" in
          check_bool "kernel alone, dirty" false (Schnorr.kernel_accepts sigs);
          match Schnorr.batch_verify sigs with
          | `Invalid [ i ] -> check_int "culprit" bad i
          | `Invalid _ -> Alcotest.fail "blamed more than the culprit"
          | `All_valid -> Alcotest.fail "missed the invalid signature"
        done);
    Alcotest.test_case "two domains on the same keys: verdicts = verify" `Slow
      (fun () ->
        let batches =
          List.init 6 (fun b ->
              let k = b mod 3 in
              let bad = if b mod 2 = 0 then (b * 5) mod 20 else -1 in
              chunk ~bad ~uses:20 k (Printf.sprintf "dom%d" b))
        in
        let expected =
          List.map
            (fun b ->
              let v = reference_verdicts b in
              (v, v = `All_valid))
            batches
        in
        let run () =
          List.map
            (fun b -> (Schnorr.batch_verify b, Schnorr.kernel_accepts b))
            batches
        in
        let d1 = Domain.spawn run and d2 = Domain.spawn run in
        let r1 = Domain.join d1 and r2 = Domain.join d2 in
        check_bool "domain 1" true (r1 = expected);
        check_bool "domain 2" true (r2 = expected));
  ]

let verify_many_tests =
  let scheme_cases =
    [ ("simulation", Signer.simulation ()); ("schnorr", Signer.schnorr) ]
  in
  List.concat_map
    (fun (name, scheme) ->
      let signers =
        Array.init 4 (fun i ->
            Signer.make scheme ~seed:(Printf.sprintf "vm-%s-%d" name i))
      in
      let reference sigs =
        let bad = ref [] in
        Array.iteri
          (fun i (id, msg, signature) ->
            if not (Signer.verify scheme ~id ~msg ~signature) then
              bad := i :: !bad)
          sigs;
        List.rev !bad
      in
      [
        Alcotest.test_case (name ^ ": empty") `Quick (fun () ->
            check_bool "empty" true (Signer.verify_many scheme [||] = []));
        qtest
          (name ^ ": verify_many = iterated verify")
          ~count:(if name = "schnorr" then 8 else 60)
          QCheck2.Gen.(
            list_size (int_bound 10) (pair (int_bound 3) (int_bound 3)))
          (fun spec ->
            let sigs =
              Array.of_list
                (List.mapi
                   (fun i (k, corrupt) ->
                     let signer = signers.(k) in
                     let msg = Printf.sprintf "vm-msg-%d" i in
                     let s = Signer.sign signer msg in
                     let s = if corrupt = 0 then flip_byte s (i mod 32) else s in
                     (Signer.id signer, msg, s))
                   spec)
            in
            Signer.verify_many scheme sigs = reference sigs);
      ])
    scheme_cases

let keyed_hmac_tests =
  [
    qtest "Keyed.sha256 = Hmac.sha256"
      QCheck2.Gen.(
        pair (string_size (int_bound 100)) (string_size (int_bound 300)))
      (fun (key, msg) ->
        Hmac.Keyed.sha256 (Hmac.Keyed.create ~key) msg = Hmac.sha256 ~key msg);
    qtest "Keyed.sha256_list = Hmac.sha256_list"
      QCheck2.Gen.(
        pair
          (string_size (int_bound 100))
          (list_size (int_bound 5) (string_size (int_bound 80))))
      (fun (key, parts) ->
        Hmac.Keyed.sha256_list (Hmac.Keyed.create ~key) parts
        = Hmac.sha256_list ~key parts);
    Alcotest.test_case "one keyed context serves many messages" `Quick
      (fun () ->
        let k = Hmac.Keyed.create ~key:"k" in
        List.iter
          (fun m -> check "same" (Hex.encode (Hmac.sha256 ~key:"k" m))
               (Hex.encode (Hmac.Keyed.sha256 k m)))
          [ ""; "a"; String.make 200 'x' ]);
  ]

let () =
  Alcotest.run "lo_crypto"
    [
      ("hex", hex_tests);
      ("sha256", sha256_tests);
      ("sha256-ref", sha256_ref_tests);
      ("hmac", hmac_tests);
      ("uint256", uint256_tests);
      ("uint256-edge", uint256_edge_tests);
      ("secp256k1", secp_tests);
      ("secp256k1-properties", secp_property_tests);
      ("schnorr", schnorr_tests);
      ("schnorr-batch", batch_tests);
      ("schnorr-comb-cache", comb_cache_tests);
      ("signer", signer_tests);
      ("verify-many", verify_many_tests);
      ("hmac-keyed", keyed_hmac_tests);
      ("merkle", merkle_tests);
    ]
