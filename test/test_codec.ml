(* Tests for lo_codec: scalar roundtrips, framing, malformed-input
   rejection, and property tests over random values. *)

module W = Lo_codec.Writer
module R = Lo_codec.Reader

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let encode f =
  let w = W.create () in
  f w;
  W.contents w

let scalar_tests =
  [
    Alcotest.test_case "u8 roundtrip" `Quick (fun () ->
        List.iter
          (fun v ->
            let r = R.of_string (encode (fun w -> W.u8 w v)) in
            check_int "u8" v (R.u8 r))
          [ 0; 1; 127; 128; 255 ]);
    Alcotest.test_case "u8 range checked" `Quick (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Writer.u8: out of range")
          (fun () -> ignore (encode (fun w -> W.u8 w (-1))));
        Alcotest.check_raises "big" (Invalid_argument "Writer.u8: out of range")
          (fun () -> ignore (encode (fun w -> W.u8 w 256))));
    Alcotest.test_case "u16 big-endian" `Quick (fun () ->
        check_str "bytes" "\x12\x34" (encode (fun w -> W.u16 w 0x1234)));
    Alcotest.test_case "u32 big-endian" `Quick (fun () ->
        check_str "bytes" "\xde\xad\xbe\xef"
          (encode (fun w -> W.u32 w 0xDEADBEEF)));
    Alcotest.test_case "u64 roundtrip" `Quick (fun () ->
        List.iter
          (fun v ->
            let r = R.of_string (encode (fun w -> W.u64 w v)) in
            check_int "u64" v (R.u64 r))
          [ 0; 1; 1 lsl 40; max_int ]);
    Alcotest.test_case "varint sizes" `Quick (fun () ->
        check_int "1 byte" 1 (String.length (encode (fun w -> W.varint w 127)));
        check_int "2 bytes" 2 (String.length (encode (fun w -> W.varint w 128)));
        check_int "2 bytes" 2 (String.length (encode (fun w -> W.varint w 16383)));
        check_int "3 bytes" 3 (String.length (encode (fun w -> W.varint w 16384))));
    qtest "varint roundtrip" QCheck2.Gen.(int_bound max_int) (fun v ->
        let r = R.of_string (encode (fun w -> W.varint w v)) in
        R.varint r = v && R.at_end r);
    qtest "u32 roundtrip" QCheck2.Gen.(int_bound 0xFFFFFFFF) (fun v ->
        let r = R.of_string (encode (fun w -> W.u32 w v)) in
        R.u32 r = v);
  ]

let composite_tests =
  [
    Alcotest.test_case "bytes roundtrip" `Quick (fun () ->
        let r = R.of_string (encode (fun w -> W.bytes w "hello")) in
        check_str "payload" "hello" (R.bytes r));
    Alcotest.test_case "fixed roundtrip" `Quick (fun () ->
        let r = R.of_string (encode (fun w -> W.fixed w "abcd")) in
        check_str "payload" "abcd" (R.fixed r 4));
    Alcotest.test_case "list roundtrip" `Quick (fun () ->
        let xs = [ 3; 1; 4; 1; 5 ] in
        let r = R.of_string (encode (fun w -> W.list w (W.varint w) xs)) in
        check_bool "equal" true (R.list r R.varint = xs));
    Alcotest.test_case "empty list" `Quick (fun () ->
        let r = R.of_string (encode (fun w -> W.list w (W.varint w) [])) in
        check_bool "empty" true (R.list r R.varint = []));
    Alcotest.test_case "expect_end catches trailing bytes" `Quick (fun () ->
        let r = R.of_string "\x00\x01" in
        ignore (R.u8 r);
        Alcotest.check_raises "trailing" (R.Malformed "trailing bytes")
          (fun () -> R.expect_end r));
    Alcotest.test_case "truncated input raises" `Quick (fun () ->
        let r = R.of_string "\x01" in
        Alcotest.check_raises "short" (R.Malformed "truncated u32") (fun () ->
            ignore (R.u32 r)));
    Alcotest.test_case "bogus list count rejected" `Quick (fun () ->
        (* claims 100 elements but has almost no payload *)
        let r = R.of_string "\x64\x01" in
        Alcotest.check_raises "count" (R.Malformed "list count exceeds input")
          (fun () -> ignore (R.list r R.varint)));
    Alcotest.test_case "varint too long rejected" `Quick (fun () ->
        let r = R.of_string (String.make 10 '\xff') in
        Alcotest.check_raises "long" (R.Malformed "varint too long") (fun () ->
            ignore (R.varint r)));
    qtest "mixed sequence roundtrip"
      QCheck2.Gen.(
        quad (int_bound 255) (int_bound max_int) (small_string ~gen:char)
          (list_size (int_bound 10) (int_bound 0xFFFF)))
      (fun (a, b, s, xs) ->
        let payload =
          encode (fun w ->
              W.u8 w a;
              W.varint w b;
              W.bytes w s;
              W.list w (W.u16 w) xs)
        in
        let r = R.of_string payload in
        R.u8 r = a && R.varint r = b && R.bytes r = s
        && R.list r R.u16 = xs
        && R.at_end r);
  ]

(* --- Lo_core.Messages: every wire constructor round-trips ---

   decode recomputes derived fields (tx ids, digest hashes) instead of
   trusting the bytes, so the robust equality is on re-encoding:
   encode (decode (encode m)) = encode m. *)

module M = Lo_core.Messages
module Commitment = Lo_core.Commitment

let scheme = Lo_crypto.Signer.simulation ()
let msg_signer = Lo_crypto.Signer.make scheme ~seed:"codec-messages"
let peer_signer = Lo_crypto.Signer.make scheme ~seed:"codec-messages-peer"

let mk_tx ?(fee = 10) payload =
  Lo_core.Tx.create ~signer:msg_signer ~fee ~created_at:1.25 ~payload

let digest_of ~signer bundles =
  let log = Commitment.Log.create ~signer () in
  List.iter (fun ids -> ignore (Commitment.Log.append log ~source:None ~ids)) bundles;
  Commitment.Log.current_digest log

let mk_block ~height ~bundles ~appendix_payloads ~omissions =
  let bundle_txs = List.map (List.map mk_tx) bundles in
  let appendix_txs = List.map mk_tx appendix_payloads in
  let txids =
    List.map
      (fun (tx : Lo_core.Tx.t) -> tx.id)
      (List.concat bundle_txs @ appendix_txs)
  in
  Lo_core.Block.create ~signer:msg_signer ~height
    ~prev_hash:Lo_core.Block.genesis_hash ~start_seq:0
    ~commit_seq:(List.length bundles) ~fee_threshold:0 ~txids
    ~bundle_sizes:(List.map List.length bundles)
    ~appendix:(List.length appendix_txs)
    ~omissions ~timestamp:2.0

let roundtrips m =
  let bytes = M.encode m in
  M.encode (M.decode bytes) = bytes

let gen_short_ids = QCheck2.Gen.(list_size (int_bound 6) (int_range 1 1_000_000))
let gen_payload = QCheck2.Gen.(small_string ~gen:printable)
let gen_bundles = QCheck2.Gen.(list_size (int_bound 3) gen_short_ids)

let message_tests =
  [
    qtest ~count:50 "submit" gen_payload (fun p -> roundtrips (M.Submit (mk_tx p)));
    qtest ~count:50 "submit-ack" gen_payload (fun p ->
        let tx = mk_tx p in
        roundtrips
          (M.Submit_ack
             { txid = tx.Lo_core.Tx.id; ack_signature = String.make 64 's' }));
    qtest ~count:50 "commit-request"
      QCheck2.Gen.(quad gen_bundles gen_short_ids gen_short_ids gen_short_ids)
      (fun (bundles, delta, want, appended) ->
        roundtrips
          (M.Commit_request
             { digest = digest_of ~signer:msg_signer bundles; delta; want;
               appended }));
    qtest ~count:50 "commit-response"
      QCheck2.Gen.(quad gen_bundles gen_short_ids gen_short_ids gen_short_ids)
      (fun (bundles, want, delta, appended) ->
        roundtrips
          (M.Commit_response
             { digest = digest_of ~signer:peer_signer bundles; want; delta;
               appended }));
    qtest ~count:30 "tx-batch"
      QCheck2.Gen.(list_size (int_bound 5) gen_payload)
      (fun payloads -> roundtrips (M.Tx_batch (List.map mk_tx payloads)));
    qtest ~count:50 "digest-share" gen_bundles (fun bundles ->
        roundtrips (M.Digest_share (digest_of ~signer:msg_signer bundles)));
    qtest ~count:50 "digest-request" QCheck2.Gen.(int_bound 10_000) (fun seq ->
        roundtrips
          (M.Digest_request
             { owner = Lo_crypto.Signer.id peer_signer; seq }));
    qtest ~count:30 "digest-reply"
      QCheck2.Gen.(list_size (int_bound 3) gen_bundles)
      (fun bundle_sets ->
        roundtrips
          (M.Digest_reply
             (List.map (fun b -> digest_of ~signer:msg_signer b) bundle_sets)));
    qtest ~count:50 "suspicion-note"
      QCheck2.Gen.(triple gen_payload bool gen_bundles)
      (fun (reason, with_digest, bundles) ->
        roundtrips
          (M.Suspicion_note
             {
               suspect = Lo_crypto.Signer.id peer_signer;
               reporter = Lo_crypto.Signer.id msg_signer;
               last_digest =
                 (if with_digest then
                    Some (digest_of ~signer:peer_signer bundles)
                  else None);
               reason;
             }));
    qtest ~count:50 "suspicion-withdraw" QCheck2.Gen.bool (fun swap ->
        let a = Lo_crypto.Signer.id msg_signer
        and b = Lo_crypto.Signer.id peer_signer in
        roundtrips
          (M.Suspicion_withdraw
             { suspect = (if swap then a else b);
               reporter = (if swap then b else a) }));
    qtest ~count:20 "exposure-note"
      QCheck2.Gen.(triple bool gen_bundles gen_short_ids)
      (fun (with_tx, bundles, extra) ->
        let older = digest_of ~signer:peer_signer bundles in
        let newer = digest_of ~signer:peer_signer (bundles @ [ 1 :: extra ]) in
        let evidence =
          if with_tx then
            Lo_core.Evidence.Block_bundle_violation
              {
                block =
                  mk_block ~height:3
                    ~bundles:[ [ "a"; "b" ]; [ "c" ] ]
                    ~appendix_payloads:[ "d" ] ~omissions:[];
                older;
                newer;
                omitted_tx = Some (mk_tx "omitted");
              }
          else Lo_core.Evidence.Conflicting_digests { older; newer }
        in
        roundtrips (M.Exposure_note evidence));
    qtest ~count:20 "block-announce"
      QCheck2.Gen.(pair (int_range 1 50) (list_size (int_bound 3) gen_payload))
      (fun (height, appendix_payloads) ->
        roundtrips
          (M.Block_announce
             (mk_block ~height
                ~bundles:[ [ "p1"; "p2" ]; [ "p3" ] ]
                ~appendix_payloads
                ~omissions:
                  [
                    (7, Lo_core.Block.Low_fee);
                    (9, Lo_core.Block.Settled);
                    (11, Lo_core.Block.Missing_content);
                  ])));
  ]

(* ---------------- Reader views ---------------- *)

(* The zero-copy decode path: [of_substring]/[sub_view] narrow a reader
   over a shared buffer; every read must behave exactly as it would
   over a copied substring. *)
let view_tests =
  [
    Alcotest.test_case "of_substring reads the window" `Quick (fun () ->
        let s = "ab\x01\x02cd" in
        let r = R.of_substring s ~pos:2 ~len:2 in
        check_int "first" 1 (R.u8 r);
        check_int "second" 2 (R.u8 r);
        check_bool "at end" true (R.at_end r);
        R.expect_end r);
    Alcotest.test_case "of_substring rejects bad windows" `Quick (fun () ->
        List.iter
          (fun (pos, len) ->
            check_bool "raises" true
              (match R.of_substring "abcd" ~pos ~len with
              | exception Invalid_argument _ -> true
              | _ -> false))
          [ (-1, 2); (0, 5); (3, 2); (5, 0) ]);
    Alcotest.test_case "view bound stops reads" `Quick (fun () ->
        let r = R.of_substring "abcdef" ~pos:1 ~len:2 in
        check_bool "truncated" true
          (match R.fixed r 3 with
          | exception R.Malformed _ -> true
          | _ -> false));
    Alcotest.test_case "sub_view consumes and narrows" `Quick (fun () ->
        let r = R.of_string "\x01XYZ\x02" in
        check_int "head" 1 (R.u8 r);
        let v = R.sub_view r 3 in
        check_int "outer tail" 2 (R.u8 r);
        R.expect_end r;
        check_str "inner" "XYZ" (R.fixed v 3);
        R.expect_end v);
    Alcotest.test_case "sub_view needs enough bytes" `Quick (fun () ->
        let r = R.of_string "ab" in
        check_bool "raises" true
          (match R.sub_view r 3 with
          | exception R.Malformed _ -> true
          | _ -> false));
    Alcotest.test_case "slice recovers decoded spans" `Quick (fun () ->
        let s = encode (fun w -> W.u16 w 0xBEEF) in
        let r = R.of_string s in
        let from = R.pos r in
        ignore (R.u16 r);
        check_str "span" s (R.slice r ~from ~until:(R.pos r)));
    qtest "view reads = copied substring reads"
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 8) (int_bound 1_000_000))
          (pair (string_size (int_bound 10)) (string_size (int_bound 10))))
      (fun (vals, (prefix, suffix)) ->
        let body =
          encode (fun w ->
              List.iter (fun v -> W.varint w v) vals;
              W.bytes w "tail")
        in
        let r_copy = R.of_string body in
        let r_view =
          R.of_substring (prefix ^ body ^ suffix)
            ~pos:(String.length prefix)
            ~len:(String.length body)
        in
        let read r =
          let xs = List.map (fun _ -> R.varint r) vals in
          let t = R.bytes r in
          R.expect_end r;
          (xs, t)
        in
        read r_copy = read r_view);
  ]

let () =
  Alcotest.run "lo_codec"
    [
      ("scalars", scalar_tests);
      ("composites", composite_tests);
      ("messages", message_tests);
      ("views", view_tests);
    ]
