(* Unit tests for lo_core data types: transactions, short ids,
   commitments and their consistency checks, canonical ordering, the
   mempool store, blocks, build policies, the inspector, evidence
   verification, accountability bookkeeping, and message codecs. *)

open Lo_core
module Signer = Lo_crypto.Signer

let scheme = Signer.simulation ()
let alice = Signer.make scheme ~seed:"alice"
let bob = Signer.make scheme ~seed:"bob"
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let mk_tx ?(signer = alice) ?(fee = 10) ?(created_at = 1.5) payload =
  Tx.create ~signer ~fee ~created_at ~payload

(* ---------------- Tx ---------------- *)

let tx_tests =
  [
    Alcotest.test_case "roundtrip" `Quick (fun () ->
        let tx = mk_tx "hello" in
        let tx' = Tx.of_string (Tx.to_string tx) in
        check_bool "equal" true (Tx.equal tx tx');
        check_str "id" (Lo_crypto.Hex.encode tx.Tx.id) (Lo_crypto.Hex.encode tx'.Tx.id);
        check_int "fee" tx.Tx.fee tx'.Tx.fee);
    Alcotest.test_case "prevalidates" `Quick (fun () ->
        check_bool "valid" true (Tx.prevalidate scheme (mk_tx "x") = Ok ()));
    Alcotest.test_case "tampered payload fails" `Quick (fun () ->
        let tx = mk_tx "hello" in
        let raw = Bytes.of_string (Tx.to_string tx) in
        (* payload bytes sit after origin(33)+fee+time; flip one near the end
           before the 64-byte signature *)
        let pos = Bytes.length raw - 65 in
        Bytes.set raw pos (Char.chr (Char.code (Bytes.get raw pos) lxor 1));
        let tx' = Tx.of_string (Bytes.to_string raw) in
        check_bool "invalid" true (Tx.prevalidate scheme tx' <> Ok ()));
    Alcotest.test_case "distinct payloads distinct ids" `Quick (fun () ->
        check_bool "ids differ" false
          (String.equal (mk_tx "a").Tx.id (mk_tx "b").Tx.id));
    Alcotest.test_case "negative fee rejected at creation" `Quick (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Tx.create: negative fee")
          (fun () -> ignore (mk_tx ~fee:(-1) "x")));
    Alcotest.test_case "oversized payload rejected" `Quick (fun () ->
        Alcotest.check_raises "big"
          (Invalid_argument "Tx.create: payload too large") (fun () ->
            ignore (mk_tx (String.make (Tx.max_payload_size + 1) 'x'))));
    Alcotest.test_case "created_at survives microsecond encoding" `Quick (fun () ->
        let tx = mk_tx ~created_at:123.456789 "x" in
        let tx' = Tx.of_string (Tx.to_string tx) in
        check_bool "close" true (abs_float (tx'.Tx.created_at -. 123.456789) < 1e-5));
    qtest "short ids in range" QCheck2.Gen.(small_string ~gen:char) (fun payload ->
        let tx = mk_tx payload in
        let s = Tx.short_id tx in
        s >= 1 && s <= Short_id.max_value);
  ]

(* ---------------- Commitment ---------------- *)

let mk_log ?(signer = alice) () = Commitment.Log.create ~signer ()

(* Committed ids that map to the given Bloom-clock cells, cell by cell
   in the order given, each cell in commitment order: the reference
   [Commitment.Log.newest_in_cells] is checked against. *)
let committed_in_cells log cells =
  let all = Commitment.Log.oldest log (Commitment.Log.counter log) in
  List.concat_map
    (fun cell ->
      List.filter
        (fun id ->
          Lo_bloom.Bloom_clock.cell_of_int
            ~cells:Commitment.default_clock_cells id
          = cell)
        all)
    cells

let commitment_tests =
  [
    Alcotest.test_case "fresh log has signed seq-0 digest" `Quick (fun () ->
        let log = mk_log () in
        let d = Commitment.Log.current_digest log in
        check_int "seq" 0 d.Commitment.seq;
        check_int "counter" 0 d.Commitment.counter;
        check_bool "verifies" true (Commitment.verify scheme d));
    Alcotest.test_case "append grows seq and counter" `Quick (fun () ->
        let log = mk_log () in
        (match Commitment.Log.append log ~source:None ~ids:[ 11; 22 ] with
        | Some d ->
            check_int "seq" 1 d.Commitment.seq;
            check_int "counter" 2 d.Commitment.counter
        | None -> Alcotest.fail "append failed");
        check_bool "contains" true (Commitment.Log.contains log 11));
    Alcotest.test_case "duplicate ids dropped" `Quick (fun () ->
        let log = mk_log () in
        ignore (Commitment.Log.append log ~source:None ~ids:[ 5 ]);
        check_bool "no-op" true
          (Commitment.Log.append log ~source:None ~ids:[ 5 ] = None);
        check_int "counter" 1 (Commitment.Log.counter log));
    Alcotest.test_case "invalid ids dropped" `Quick (fun () ->
        let log = mk_log () in
        check_bool "none" true
          (Commitment.Log.append log ~source:None ~ids:[ 0; -3 ] = None));
    Alcotest.test_case "digest wire roundtrip (full and light)" `Quick (fun () ->
        let log = mk_log () in
        ignore (Commitment.Log.append log ~source:None ~ids:[ 7; 9 ]);
        List.iter
          (fun d ->
            let w = Lo_codec.Writer.create () in
            Commitment.encode w d;
            let d' = Commitment.decode (Lo_codec.Reader.of_string (Lo_codec.Writer.contents w)) in
            check_bool "content" true (Commitment.equal_content d d');
            check_bool "verifies" true (Commitment.verify scheme d');
            check_bool "form preserved" true
              (Commitment.is_full d = Commitment.is_full d'))
          [ Commitment.Log.current_digest log;
            Commitment.Log.current_digest_light log ]);
    Alcotest.test_case "light digest verifies via sketch hash" `Quick (fun () ->
        let log = mk_log () in
        ignore (Commitment.Log.append log ~source:None ~ids:[ 3 ]);
        let light = Commitment.Log.current_digest_light log in
        check_bool "light" false (Commitment.is_full light);
        check_bool "verifies" true (Commitment.verify scheme light));
    Alcotest.test_case "corrupted sketch fails verification" `Quick (fun () ->
        let log = mk_log () in
        ignore (Commitment.Log.append log ~source:None ~ids:[ 3 ]);
        let d = Commitment.Log.current_digest log in
        let other = Lo_sketch.Sketch.create ~capacity:Commitment.default_sketch_capacity () in
        Lo_sketch.Sketch.add other 99;
        let forged = { d with Commitment.sketch = Some other } in
        check_bool "rejected" false (Commitment.verify scheme forged));
    Alcotest.test_case "extension consistent" `Quick (fun () ->
        let log = mk_log () in
        ignore (Commitment.Log.append log ~source:None ~ids:[ 1; 2 ]);
        let d1 = Commitment.Log.current_digest log in
        ignore (Commitment.Log.append log ~source:None ~ids:[ 3 ]);
        let d2 = Commitment.Log.current_digest log in
        match Commitment.check_extension ~older:d1 ~newer:d2 () with
        | Commitment.Consistent ids -> check_bool "delta" true (ids = [ 3 ])
        | _ -> Alcotest.fail "expected Consistent");
    Alcotest.test_case "same-seq different content inconsistent" `Quick (fun () ->
        let log_a = mk_log () and log_b = mk_log () in
        ignore (Commitment.Log.append log_a ~source:None ~ids:[ 1 ]);
        ignore (Commitment.Log.append log_b ~source:None ~ids:[ 2 ]);
        let da = Commitment.Log.current_digest log_a in
        let db = Commitment.Log.current_digest log_b in
        check_bool "inconsistent" true
          (Commitment.check_extension ~older:da ~newer:db () = Commitment.Inconsistent));
    Alcotest.test_case "counter shrink inconsistent" `Quick (fun () ->
        let log = mk_log () in
        ignore (Commitment.Log.append log ~source:None ~ids:[ 1; 2; 3 ]);
        let d1 = Commitment.Log.current_digest log in
        let log2 = mk_log () in
        ignore (Commitment.Log.append log2 ~source:None ~ids:[ 9 ]);
        ignore (Commitment.Log.append log2 ~source:None ~ids:[ 10 ]);
        let d2 = Commitment.Log.current_digest log2 in
        (* d1.seq=1 counter=3; d2.seq=2 counter=2 -> counters shrink *)
        check_bool "inconsistent" true
          (Commitment.check_extension ~older:d1 ~newer:d2 () = Commitment.Inconsistent));
    Alcotest.test_case "divergent sets inconsistent via sketch" `Quick (fun () ->
        let log_a = mk_log () and log_b = mk_log () in
        ignore (Commitment.Log.append log_a ~source:None ~ids:[ 1 ]);
        let da = Commitment.Log.current_digest log_a in
        ignore (Commitment.Log.append log_b ~source:None ~ids:[ 2 ]);
        ignore (Commitment.Log.append log_b ~source:None ~ids:[ 3 ]);
        let db = Commitment.Log.current_digest log_b in
        (* da: {1} seq1; db: {2,3} seq2; counter diff 1 but set diff 3 *)
        check_bool "inconsistent" true
          (Commitment.check_extension ~older:da ~newer:db () = Commitment.Inconsistent));
    Alcotest.test_case "light extension only plausible" `Quick (fun () ->
        let log = mk_log () in
        ignore (Commitment.Log.append log ~source:None ~ids:[ 1 ]);
        let d1 = Commitment.Log.current_digest_light log in
        ignore (Commitment.Log.append log ~source:None ~ids:[ 2 ]);
        let d2 = Commitment.Log.current_digest_light log in
        check_bool "plausible" true
          (Commitment.check_extension ~older:d1 ~newer:d2 () = Commitment.Plausible));
    Alcotest.test_case "clock regression caught even when light" `Quick (fun () ->
        let log_a = mk_log () and log_b = mk_log () in
        (* make b diverge enough to violate dominance with high probability *)
        ignore (Commitment.Log.append log_a ~source:None ~ids:(List.init 40 (fun i -> i + 1)));
        let da = Commitment.Log.current_digest_light log_a in
        ignore (Commitment.Log.append log_b ~source:None ~ids:(List.init 41 (fun i -> i + 1000)));
        ignore (Commitment.Log.append log_b ~source:None ~ids:[ 5000 ]);
        let db = Commitment.Log.current_digest_light log_b in
        check_bool "inconsistent" true
          (Commitment.check_extension ~older:da ~newer:db () = Commitment.Inconsistent));
    Alcotest.test_case "digest_at retains history" `Quick (fun () ->
        let log = mk_log () in
        ignore (Commitment.Log.append log ~source:None ~ids:[ 1 ]);
        ignore (Commitment.Log.append log ~source:None ~ids:[ 2 ]);
        check_bool "seq0" true (Commitment.Log.digest_at log ~seq:0 <> None);
        check_bool "seq1" true (Commitment.Log.digest_at log ~seq:1 <> None);
        check_bool "seq2" true (Commitment.Log.digest_at log ~seq:2 <> None);
        check_bool "seq3" true (Commitment.Log.digest_at log ~seq:3 = None));
    Alcotest.test_case "bundles in order with sources" `Quick (fun () ->
        (* The source is an argument of [append]; the log does not keep
           it, so bundles come back by seq and ids alone. *)
        let log = mk_log () in
        ignore (Commitment.Log.append log ~source:None ~ids:[ 1 ]);
        ignore (Commitment.Log.append log ~source:(Some "peer") ~ids:[ 2; 3 ]);
        match Commitment.Log.bundles log with
        | [ b1; b2 ] ->
            check_int "seq1" 1 b1.Commitment.Log.seq;
            check_int "seq2" 2 b2.Commitment.Log.seq;
            check_bool "ids" true
              (List.concat_map
                 (fun b -> b.Commitment.Log.ids)
                 (Commitment.Log.bundles log)
               = [ 1; 2; 3 ])
        | _ -> Alcotest.fail "expected two bundles");
    Alcotest.test_case "newest_in_cells over every cell covers all ids" `Quick
      (fun () ->
        let log = mk_log () in
        let ids = List.init 30 (fun i -> (i * 7919) + 1) in
        ignore (Commitment.Log.append log ~source:None ~ids);
        let cells = List.init Commitment.default_clock_cells Fun.id in
        let everything = Commitment.Log.newest_in_cells log cells 100 in
        check_bool "all" true
          (List.sort compare everything = List.sort compare ids));
    qtest "delta helpers = the list expressions they replace" ~count:300
      QCheck2.Gen.(
        triple
          (list_size (int_bound 12)
             (list_size (int_range 1 9) (int_range 1 300)))
          (int_range (-2) 120)
          (list_size (int_bound 10) (int_range (-3) 40)))
      (fun (bundles, n, cells) ->
        (* Multi-id bundles with repeats (dropped on append), the empty
           log, n beyond the counter and out-of-range cells are all in
           range of the generator. *)
        let log = mk_log () in
        List.iter
          (fun ids -> ignore (Commitment.Log.append log ~source:None ~ids))
          bundles;
        let cap n xs = List.filteri (fun i _ -> i < n) xs in
        let all =
          List.concat_map
            (fun b -> b.Commitment.Log.ids)
            (Commitment.Log.bundles log)
        in
        Commitment.Log.oldest log n = cap n all
        && Commitment.Log.newest log n = cap n (List.rev all)
        && Commitment.Log.newest_in_cells log cells n
           = cap n (List.rev (committed_in_cells log cells)));
    qtest "incremental sketch_hash = from-scratch hash" ~count:30
      QCheck2.Gen.(list_size (int_range 1 8) (list_size (int_range 1 12) (int_range 1 1_000_000)))
      (fun bundles ->
        (* The log maintains its digest incrementally (reused serialization
           buffer, streaming hash); recomputing the hash from the attached
           sketch's wire encoding must give the identical value. *)
        let log = mk_log () in
        List.iter
          (fun ids ->
            ignore (Commitment.Log.append log ~source:None ~ids:(List.sort_uniq compare ids)))
          bundles;
        let d = Commitment.Log.current_digest log in
        match d.Commitment.sketch with
        | None -> false
        | Some s ->
            let w = Lo_codec.Writer.create () in
            Lo_sketch.Sketch.encode w s;
            Lo_crypto.Sha256.digest (Lo_codec.Writer.contents w)
            = d.Commitment.sketch_hash);
    Alcotest.test_case "digest_at finds every recorded seq" `Quick (fun () ->
        let log = mk_log () in
        for i = 1 to 5 do
          ignore (Commitment.Log.append log ~source:None ~ids:[ 100 + i ])
        done;
        for seq = 0 to 5 do
          match Commitment.Log.digest_at log ~seq with
          | Some d -> check_int "seq" seq d.Commitment.seq
          | None -> Alcotest.fail (Printf.sprintf "digest_at %d missing" seq)
        done;
        check_bool "past end" true (Commitment.Log.digest_at log ~seq:6 = None);
        check_bool "negative" true (Commitment.Log.digest_at log ~seq:(-1) = None));
  ]

(* ---------------- Order ---------------- *)

let order_tests =
  [
    Alcotest.test_case "deterministic" `Quick (fun () ->
        let ids = [ 5; 9; 1; 7 ] in
        check_bool "same" true
          (Order.sort_bundle ~seed:"s" ~bundle_seq:1 ids
          = Order.sort_bundle ~seed:"s" ~bundle_seq:1 ids));
    Alcotest.test_case "permutation of input" `Quick (fun () ->
        let ids = List.init 20 (fun i -> i + 1) in
        let out = Order.sort_bundle ~seed:"s" ~bundle_seq:3 ids in
        check_bool "perm" true (List.sort compare out = List.sort compare ids));
    Alcotest.test_case "seed changes order" `Quick (fun () ->
        let ids = List.init 20 (fun i -> i + 1) in
        check_bool "differ" false
          (Order.sort_bundle ~seed:"s1" ~bundle_seq:1 ids
          = Order.sort_bundle ~seed:"s2" ~bundle_seq:1 ids));
    Alcotest.test_case "bundle seq changes order" `Quick (fun () ->
        let ids = List.init 20 (fun i -> i + 1) in
        check_bool "differ" false
          (Order.sort_bundle ~seed:"s" ~bundle_seq:1 ids
          = Order.sort_bundle ~seed:"s" ~bundle_seq:2 ids));
    Alcotest.test_case "input order irrelevant" `Quick (fun () ->
        let ids = List.init 20 (fun i -> i + 1) in
        check_bool "same" true
          (Order.sort_bundle ~seed:"s" ~bundle_seq:1 ids
          = Order.sort_bundle ~seed:"s" ~bundle_seq:1 (List.rev ids)));
    qtest "canonical = concatenation of sorted bundles" ~count:50
      QCheck2.Gen.(
        list_size (int_range 1 5)
          (list_size (int_range 1 6) (int_range 1 100000)))
      (fun raw ->
        let bundles = List.mapi (fun i ids -> (i + 1, List.sort_uniq compare ids)) raw in
        let direct = Order.canonical ~seed:"k" ~bundles in
        let manual =
          List.concat_map
            (fun (seq, ids) -> Order.sort_bundle ~seed:"k" ~bundle_seq:seq ids)
            bundles
        in
        direct = manual);
    qtest "sort_bundle = sort by per-id Hmac.sha256 key" ~count:200
      QCheck2.Gen.(
        triple (string_size (int_bound 80)) (int_bound 100_000)
          (list_size (int_bound 40) (int_bound 0xFFFF_FFFF)))
      (fun (seed, bundle_seq, ids) ->
        (* The spec, one fresh HMAC per id: the order must not depend on
           how the keyed contexts are shared. *)
        let key id =
          let w = Lo_codec.Writer.create () in
          Lo_codec.Writer.varint w bundle_seq;
          Lo_codec.Writer.u32 w id;
          Lo_crypto.Hmac.sha256 ~key:seed (Lo_codec.Writer.contents w)
        in
        let reference =
          List.map (fun id -> (key id, id)) ids
          |> List.sort compare |> List.map snd
        in
        Order.sort_bundle ~seed ~bundle_seq ids = reference);
    Alcotest.test_case "canonical respects bundle order" `Quick (fun () ->
        let bundles = [ (2, [ 30; 31 ]); (1, [ 10; 11 ]) ] in
        let out = Order.canonical ~seed:"s" ~bundles in
        let first_two = [ List.nth out 0; List.nth out 1 ] in
        check_bool "bundle 1 first" true
          (List.sort compare first_two = [ 10; 11 ]));
  ]

(* ---------------- Mempool ---------------- *)

let mempool_tests =
  [
    Alcotest.test_case "add and find" `Quick (fun () ->
        let m = Mempool.create () in
        let tx = mk_tx "a" in
        (match Mempool.add m ~tx ~received_at:1.0 ~from_peer:None with
        | `Added e -> check_int "short" (Tx.short_id tx) e.Mempool.short_id
        | `Duplicate -> Alcotest.fail "duplicate?");
        check_bool "mem" true (Mempool.mem_short m (Tx.short_id tx));
        check_bool "find id" true (Mempool.find_id m tx.Tx.id <> None);
        check_int "size" 1 (Mempool.size m));
    Alcotest.test_case "duplicate detected" `Quick (fun () ->
        let m = Mempool.create () in
        let tx = mk_tx "a" in
        ignore (Mempool.add m ~tx ~received_at:1.0 ~from_peer:None);
        check_bool "dup" true
          (Mempool.add m ~tx ~received_at:2.0 ~from_peer:None = `Duplicate));
  ]

(* ---------------- Block ---------------- *)

let mk_block ?(signer = alice) ?(height = 1) ?(start_seq = 0) ?(commit_seq = 1)
    ?(fee_threshold = 0) ?txids ?bundle_sizes ?(appendix = 0) ?(omissions = [])
    () =
  let txids = Option.value txids ~default:[ (mk_tx "t1").Tx.id ] in
  let bundle_sizes =
    Option.value bundle_sizes ~default:[ List.length txids - appendix ]
  in
  Block.create ~signer ~height ~prev_hash:Block.genesis_hash ~start_seq
    ~commit_seq ~fee_threshold ~txids ~bundle_sizes ~appendix ~omissions
    ~timestamp:5.0

let block_tests =
  [
    Alcotest.test_case "roundtrip" `Quick (fun () ->
        let b = mk_block () in
        let b' = Block.of_string (Block.to_string b) in
        check_str "hash" (Lo_crypto.Hex.encode (Block.hash b))
          (Lo_crypto.Hex.encode (Block.hash b'));
        check_bool "verify" true (Block.verify_signature scheme b'));
    Alcotest.test_case "equal iff same encoding" `Quick (fun () ->
        let b = mk_block () in
        let b' = Block.of_string (Block.to_string b) in
        check_bool "decoded copy" true (Block.equal b b');
        check_bool "sub-microsecond timestamp" true
          (Block.equal b { b with timestamp = 5.0000000004 });
        let other = (mk_tx "t2").Tx.id in
        List.iter
          (fun (name, c) ->
            check_bool name false (Block.equal b c);
            check_bool (name ^ ": hash differs") false
              (String.equal (Block.hash b) (Block.hash c)))
          [
            ("txid", { b with txids = [ other ] });
            ("height", { b with height = 2 });
            ("timestamp", { b with timestamp = 5.000001 });
            ("signature", mk_block ~signer:bob ());
            ("omissions", { b with omissions = [ (7, Block.Settled) ] });
          ]);
    Alcotest.test_case "tampered signature fails" `Quick (fun () ->
        let b = mk_block () in
        let raw = Bytes.of_string (Block.to_string b) in
        Bytes.set raw (Bytes.length raw - 1)
          (Char.chr (Char.code (Bytes.get raw (Bytes.length raw - 1)) lxor 1));
        let b' = Block.of_string (Bytes.to_string raw) in
        check_bool "invalid" false (Block.verify_signature scheme b'));
    Alcotest.test_case "structure checked at creation" `Quick (fun () ->
        Alcotest.check_raises "bad" (Invalid_argument "Block.create: bad structure")
          (fun () -> ignore (mk_block ~bundle_sizes:[ 5 ] ())));
    Alcotest.test_case "bundle partition" `Quick (fun () ->
        let t1 = mk_tx "a" and t2 = mk_tx "b" and t3 = mk_tx "c" in
        let b =
          mk_block ~commit_seq:2
            ~txids:[ t1.Tx.id; t2.Tx.id; t3.Tx.id ]
            ~bundle_sizes:[ 2; 1 ] ()
        in
        (match Block.bundle_txids b with
        | [ (1, b1); (2, b2) ] ->
            check_int "b1" 2 (List.length b1);
            check_int "b2" 1 (List.length b2)
        | _ -> Alcotest.fail "bad partition");
        check_bool "appendix empty" true (Block.appendix_txids b = []));
    Alcotest.test_case "start_seq offsets bundle numbering" `Quick (fun () ->
        let t1 = mk_tx "a" in
        let b =
          mk_block ~start_seq:3 ~commit_seq:4 ~txids:[ t1.Tx.id ]
            ~bundle_sizes:[ 1 ] ()
        in
        match Block.bundle_txids b with
        | [ (4, _) ] -> ()
        | _ -> Alcotest.fail "expected bundle 4");
    Alcotest.test_case "appendix split" `Quick (fun () ->
        let t1 = mk_tx "a" and t2 = mk_tx "b" in
        let b =
          mk_block ~commit_seq:1 ~txids:[ t1.Tx.id; t2.Tx.id ]
            ~bundle_sizes:[ 1 ] ~appendix:1 ()
        in
        check_bool "appendix" true (Block.appendix_txids b = [ t2.Tx.id ]));
    Alcotest.test_case "omissions roundtrip" `Quick (fun () ->
        let b =
          mk_block
            ~omissions:[ (42, Block.Low_fee); (43, Block.Missing_content); (44, Block.Settled) ]
            ()
        in
        let b' = Block.of_string (Block.to_string b) in
        check_bool "omissions" true (b'.Block.omissions = b.Block.omissions));
  ]

(* ---------------- Policy ---------------- *)

let policy_tests =
  let t_low = mk_tx ~fee:1 "low" in
  let t_mid = mk_tx ~fee:10 "mid" in
  let t_high = mk_tx ~fee:100 "high" in
  let table =
    List.map (fun tx -> (Tx.short_id tx, tx)) [ t_low; t_mid; t_high ]
  in
  let find_tx id = List.assoc_opt id table in
  let input ?(is_settled = fun _ -> false) ?(fee_threshold = 0) ?(max_txs = 100)
      bundles =
    { Policy.bundles; find_tx; is_settled; fee_threshold; max_txs; seed = "seed" }
  in
  [
    Alcotest.test_case "fifo keeps bundle order" `Quick (fun () ->
        let out =
          Policy.build Policy.Lo_fifo
            (input [ (1, [ Tx.short_id t_low ]); (2, [ Tx.short_id t_high ]) ])
        in
        check_bool "order" true (out.Policy.txids = [ t_low.Tx.id; t_high.Tx.id ]);
        check_int "covered" 2 out.Policy.covered_seq;
        check_bool "sizes" true (out.Policy.bundle_sizes = [ 1; 1 ]));
    Alcotest.test_case "fifo fee threshold omits" `Quick (fun () ->
        let out =
          Policy.build Policy.Lo_fifo
            (input ~fee_threshold:5
               [ (1, [ Tx.short_id t_low; Tx.short_id t_high ]) ])
        in
        check_bool "only high" true (out.Policy.txids = [ t_high.Tx.id ]);
        check_bool "omission" true
          (out.Policy.omissions = [ (Tx.short_id t_low, Block.Low_fee) ]));
    Alcotest.test_case "fifo missing content omitted" `Quick (fun () ->
        let out = Policy.build Policy.Lo_fifo (input [ (1, [ 424242 ]) ]) in
        check_bool "empty" true (out.Policy.txids = []);
        check_bool "omission" true
          (out.Policy.omissions = [ (424242, Block.Missing_content) ]));
    Alcotest.test_case "fifo settled prefix skipped" `Quick (fun () ->
        let settled id = id = Tx.short_id t_low in
        let out =
          Policy.build Policy.Lo_fifo
            (input ~is_settled:settled
               [ (1, [ Tx.short_id t_low ]); (2, [ Tx.short_id t_mid ]) ])
        in
        check_int "start" 1 out.Policy.start_seq;
        check_bool "only mid" true (out.Policy.txids = [ t_mid.Tx.id ]));
    Alcotest.test_case "fifo blockspace truncates whole bundles" `Quick (fun () ->
        let out =
          Policy.build Policy.Lo_fifo
            (input ~max_txs:1
               [ (1, [ Tx.short_id t_low ]);
                 (2, [ Tx.short_id t_mid; Tx.short_id t_high ]) ])
        in
        check_int "covered" 1 out.Policy.covered_seq;
        check_bool "one tx" true (out.Policy.txids = [ t_low.Tx.id ]));
    Alcotest.test_case "highest fee sorts by fee" `Quick (fun () ->
        let out =
          Policy.build Policy.Highest_fee
            (input
               [ (1, [ Tx.short_id t_low; Tx.short_id t_high; Tx.short_id t_mid ]) ])
        in
        check_bool "order" true
          (out.Policy.txids = [ t_high.Tx.id; t_mid.Tx.id; t_low.Tx.id ]));
    Alcotest.test_case "highest fee respects cap" `Quick (fun () ->
        let out =
          Policy.build Policy.Highest_fee
            (input ~max_txs:1
               [ (1, [ Tx.short_id t_low; Tx.short_id t_high ]) ])
        in
        check_bool "top only" true (out.Policy.txids = [ t_high.Tx.id ]));
    Alcotest.test_case "fifo canonical intra-bundle order" `Quick (fun () ->
        let bundle = [ Tx.short_id t_low; Tx.short_id t_mid; Tx.short_id t_high ] in
        let out = Policy.build Policy.Lo_fifo (input [ (1, bundle) ]) in
        let expected = Order.sort_bundle ~seed:"seed" ~bundle_seq:1 bundle in
        check_bool "canonical" true
          (List.map Short_id.of_txid out.Policy.txids = expected));
  ]

(* ---------------- Inspector & Evidence ---------------- *)

let inspector_tests =
  (* Build a convincing scenario: a creator log with two bundles. *)
  let creator = Signer.make scheme ~seed:"creator" in
  let txs = List.init 6 (fun i -> mk_tx ~fee:(10 + i) (Printf.sprintf "tx%d" i)) in
  let log = Commitment.Log.create ~signer:creator () in
  let bundle1 = List.filteri (fun i _ -> i < 3) txs in
  let bundle2 = List.filteri (fun i _ -> i >= 3) txs in
  ignore (Commitment.Log.append log ~source:None ~ids:(List.map Tx.short_id bundle1));
  ignore (Commitment.Log.append log ~source:None ~ids:(List.map Tx.short_id bundle2));
  let knowledge =
    {
      Inspector.bundle_of_seq =
        (fun seq ->
          match seq with
          | 1 -> Some (List.map Tx.short_id bundle1)
          | 2 -> Some (List.map Tx.short_id bundle2)
          | _ -> None);
      find_tx =
        (fun id -> List.find_opt (fun tx -> Tx.short_id tx = id) txs);
      settled_height = (fun _ -> None);
    }
  in
  let honest_block ?(omissions = []) ?(drop = []) ?(extra = []) ?(shuffle = false) () =
    let bundle_ids seq b =
      let ids =
        List.map Tx.short_id b
        |> List.filter (fun id -> not (List.mem id drop))
      in
      let ordered = Order.sort_bundle ~seed:Block.genesis_hash ~bundle_seq:seq ids in
      let ordered = if shuffle then List.rev ordered else ordered in
      List.map
        (fun id ->
          (List.find (fun tx -> Tx.short_id tx = id) txs).Tx.id)
        ordered
    in
    let b1 = bundle_ids 1 bundle1 and b2 = bundle_ids 2 bundle2 in
    let extra_ids = List.map (fun (tx : Tx.t) -> tx.Tx.id) extra in
    Block.create ~signer:creator ~height:1 ~prev_hash:Block.genesis_hash
      ~start_seq:0 ~commit_seq:2 ~fee_threshold:0
      ~txids:(b1 @ b2 @ extra_ids)
      ~bundle_sizes:[ List.length b1; List.length b2 ]
      ~appendix:(List.length extra_ids) ~omissions ~timestamp:3.0
  in
  [
    Alcotest.test_case "honest block is clean" `Quick (fun () ->
        let report = Inspector.inspect (honest_block ()) knowledge in
        check_bool "clean" true (Inspector.clean report);
        check_bool "verified" true (report.Inspector.unverified_bundles = []));
    Alcotest.test_case "silent omission = censorship" `Quick (fun () ->
        let victim = List.hd txs in
        let block = honest_block ~drop:[ Tx.short_id victim ] () in
        let report = Inspector.inspect block knowledge in
        check_bool "violation" true
          (List.exists
             (function
               | Inspector.Blockspace_censorship { short_id; _ } ->
                   short_id = Tx.short_id victim
               | _ -> false)
             report.Inspector.violations));
    Alcotest.test_case "false low-fee claim detected" `Quick (fun () ->
        let victim = List.hd txs in
        let block =
          honest_block ~drop:[ Tx.short_id victim ]
            ~omissions:[ (Tx.short_id victim, Block.Low_fee) ] ()
        in
        let report = Inspector.inspect block knowledge in
        check_bool "violation" true
          (List.exists
             (function
               | Inspector.False_omission_claim _ -> true
               | _ -> false)
             report.Inspector.violations));
    Alcotest.test_case "missing-content claim unverifiable not violation" `Quick
      (fun () ->
        let victim = List.hd txs in
        let block =
          honest_block ~drop:[ Tx.short_id victim ]
            ~omissions:[ (Tx.short_id victim, Block.Missing_content) ] ()
        in
        let report = Inspector.inspect block knowledge in
        check_bool "clean" true (Inspector.clean report);
        check_bool "tracked" true (report.Inspector.unverifiable_omissions <> []));
    Alcotest.test_case "reordering detected" `Quick (fun () ->
        let report = Inspector.inspect (honest_block ~shuffle:true ()) knowledge in
        check_bool "violation" true
          (List.exists
             (function Inspector.Reordering _ -> true | _ -> false)
             report.Inspector.violations));
    Alcotest.test_case "foreign appendix tx = injection" `Quick (fun () ->
        let foreign = mk_tx ~signer:bob "foreign" in
        let know_with_foreign =
          { knowledge with
            Inspector.find_tx =
              (fun id ->
                if id = Tx.short_id foreign then Some foreign
                else knowledge.Inspector.find_tx id) }
        in
        let report =
          Inspector.inspect (honest_block ~extra:[ foreign ] ()) know_with_foreign
        in
        check_bool "violation" true
          (List.exists
             (function
               | Inspector.Injection { bundle_seq = None; _ } -> true
               | _ -> false)
             report.Inspector.violations));
    Alcotest.test_case "unknown bundles reported unverified" `Quick (fun () ->
        let know_nothing =
          { knowledge with Inspector.bundle_of_seq = (fun _ -> None) }
        in
        let report = Inspector.inspect (honest_block ()) know_nothing in
        check_bool "clean" true (Inspector.clean report);
        check_bool "unverified" true
          (report.Inspector.unverified_bundles = [ 1; 2 ]));
    (* Evidence *)
    Alcotest.test_case "censorship evidence verifies" `Quick (fun () ->
        let victim = List.nth txs 3 (* in bundle 2 *) in
        let block = honest_block ~drop:[ Tx.short_id victim ] () in
        let older = Option.get (Commitment.Log.digest_at log ~seq:1) in
        let newer = Option.get (Commitment.Log.digest_at log ~seq:2) in
        let ev =
          Evidence.Block_bundle_violation { block; older; newer; omitted_tx = Some victim }
        in
        check_bool "valid" true (Evidence.verify scheme ev));
    Alcotest.test_case "censorship evidence for included tx fails" `Quick (fun () ->
        let tx = List.nth txs 3 in
        let block = honest_block () in
        let older = Option.get (Commitment.Log.digest_at log ~seq:1) in
        let newer = Option.get (Commitment.Log.digest_at log ~seq:2) in
        let ev =
          Evidence.Block_bundle_violation { block; older; newer; omitted_tx = Some tx }
        in
        check_bool "invalid" false (Evidence.verify scheme ev));
    Alcotest.test_case "reorder evidence verifies" `Quick (fun () ->
        let block = honest_block ~shuffle:true () in
        let older = Option.get (Commitment.Log.digest_at log ~seq:1) in
        let newer = Option.get (Commitment.Log.digest_at log ~seq:2) in
        let ev =
          Evidence.Block_bundle_violation { block; older; newer; omitted_tx = None }
        in
        check_bool "valid" true (Evidence.verify scheme ev));
    Alcotest.test_case "reorder evidence on honest block fails" `Quick (fun () ->
        let block = honest_block () in
        let older = Option.get (Commitment.Log.digest_at log ~seq:1) in
        let newer = Option.get (Commitment.Log.digest_at log ~seq:2) in
        let ev =
          Evidence.Block_bundle_violation { block; older; newer; omitted_tx = None }
        in
        check_bool "invalid" false (Evidence.verify scheme ev));
    Alcotest.test_case "conflicting digests evidence verifies" `Quick (fun () ->
        let log_a = Commitment.Log.create ~signer:creator () in
        let log_b = Commitment.Log.create ~signer:creator () in
        ignore (Commitment.Log.append log_a ~source:None ~ids:[ 1 ]);
        ignore (Commitment.Log.append log_b ~source:None ~ids:[ 2 ]);
        let ev =
          Evidence.Conflicting_digests
            {
              older = Commitment.Log.current_digest log_a;
              newer = Commitment.Log.current_digest log_b;
            }
        in
        check_bool "valid" true (Evidence.verify scheme ev);
        check_bool "accused" true
          (String.equal (Evidence.accused ev) (Signer.id creator)));
    Alcotest.test_case "consistent digests are not evidence" `Quick (fun () ->
        let older = Option.get (Commitment.Log.digest_at log ~seq:1) in
        let newer = Option.get (Commitment.Log.digest_at log ~seq:2) in
        let ev = Evidence.Conflicting_digests { older; newer } in
        check_bool "invalid" false (Evidence.verify scheme ev));
    Alcotest.test_case "evidence wire roundtrip" `Quick (fun () ->
        let victim = List.nth txs 3 in
        let block = honest_block ~drop:[ Tx.short_id victim ] () in
        let older = Option.get (Commitment.Log.digest_at log ~seq:1) in
        let newer = Option.get (Commitment.Log.digest_at log ~seq:2) in
        let ev =
          Evidence.Block_bundle_violation { block; older; newer; omitted_tx = Some victim }
        in
        let w = Lo_codec.Writer.create () in
        Evidence.encode w ev;
        let ev' = Evidence.decode (Lo_codec.Reader.of_string (Lo_codec.Writer.contents w)) in
        check_bool "still valid" true (Evidence.verify scheme ev'));
  ]

(* ---------------- Accountability ---------------- *)

let evidence_soundness_tests =
  [
    qtest "honest digest pairs never verify as evidence" ~count:40
      QCheck2.Gen.(
        pair (list_size (int_range 1 6) (list_size (int_range 1 5) (int_range 1 1000000)))
          (int_range 0 5))
      (fun (bundles, pick) ->
        let signer = Signer.make scheme ~seed:"sound" in
        let log = Commitment.Log.create ~signer () in
        List.iter
          (fun ids -> ignore (Commitment.Log.append log ~source:None ~ids))
          bundles;
        let top = Commitment.Log.seq log in
        let s1 = pick mod (top + 1) in
        let s2 = s1 + ((pick / 2) mod (top - s1 + 1)) in
        match
          (Commitment.Log.digest_at log ~seq:s1, Commitment.Log.digest_at log ~seq:s2)
        with
        | Some older, Some newer ->
            not (Evidence.verify scheme (Evidence.Conflicting_digests { older; newer }))
        | _ -> true);
    qtest "forked same-seq digests always verify as evidence" ~count:40
      QCheck2.Gen.(pair (int_range 1 1000000) (int_range 1 1000000))
      (fun (a, b) ->
        QCheck2.assume (a <> b);
        let signer = Signer.make scheme ~seed:"forked" in
        let log_a = Commitment.Log.create ~signer () in
        let log_b = Commitment.Log.create ~signer () in
        ignore (Commitment.Log.append log_a ~source:None ~ids:[ a ]);
        ignore (Commitment.Log.append log_b ~source:None ~ids:[ b ]);
        Evidence.verify scheme
          (Evidence.Conflicting_digests
             {
               older = Commitment.Log.current_digest log_a;
               newer = Commitment.Log.current_digest log_b;
             }));
    Alcotest.test_case "evidence from a different signer is rejected" `Quick
      (fun () ->
        (* digests signed by X cannot expose Y, and unsigned forgeries
           fail verification *)
        let sx = Signer.make scheme ~seed:"signer-x" in
        let log_a = Commitment.Log.create ~signer:sx () in
        let log_b = Commitment.Log.create ~signer:sx () in
        ignore (Commitment.Log.append log_a ~source:None ~ids:[ 1 ]);
        ignore (Commitment.Log.append log_b ~source:None ~ids:[ 2 ]);
        let da = Commitment.Log.current_digest log_a in
        let db = Commitment.Log.current_digest log_b in
        (* re-owner the newer digest without re-signing *)
        let forged = { db with Commitment.owner = Signer.id bob } in
        check_bool "owner mismatch rejected" false
          (Evidence.verify scheme
             (Evidence.Conflicting_digests { older = da; newer = forged })));
  ]

let accountability_tests =
  let dummy_evidence () =
    let log_a = Commitment.Log.create ~signer:bob () in
    let log_b = Commitment.Log.create ~signer:bob () in
    ignore (Commitment.Log.append log_a ~source:None ~ids:[ 1 ]);
    ignore (Commitment.Log.append log_b ~source:None ~ids:[ 2 ]);
    Evidence.Conflicting_digests
      {
        older = Commitment.Log.current_digest log_a;
        newer = Commitment.Log.current_digest log_b;
      }
  in
  [
    Alcotest.test_case "default trusted" `Quick (fun () ->
        let t = Accountability.create () in
        check_bool "trusted" true (Accountability.status t "x" = Accountability.Trusted));
    Alcotest.test_case "suspect and clear" `Quick (fun () ->
        let t = Accountability.create () in
        Accountability.suspect t ~peer:"p" ~now:1.0 ~reason:"timeout";
        check_bool "suspected" true (Accountability.is_suspected t "p");
        Accountability.clear_suspicion t ~peer:"p";
        check_bool "cleared" false (Accountability.is_suspected t "p"));
    Alcotest.test_case "re-suspect keeps original time" `Quick (fun () ->
        let t = Accountability.create () in
        Accountability.suspect t ~peer:"p" ~now:1.0 ~reason:"a";
        Accountability.suspect t ~peer:"p" ~now:9.0 ~reason:"b";
        match Accountability.status t "p" with
        | Accountability.Suspected s ->
            Alcotest.(check (float 1e-9)) "since" 1.0 s.Accountability.since
        | _ -> Alcotest.fail "not suspected");
    Alcotest.test_case "exposure is sticky" `Quick (fun () ->
        let t = Accountability.create () in
        check_bool "new" true (Accountability.expose t ~peer:"p" (dummy_evidence ()));
        check_bool "repeat" false (Accountability.expose t ~peer:"p" (dummy_evidence ()));
        Accountability.clear_suspicion t ~peer:"p";
        check_bool "still" true (Accountability.is_exposed t "p"));
    Alcotest.test_case "suspicion cannot downgrade exposure" `Quick (fun () ->
        let t = Accountability.create () in
        ignore (Accountability.expose t ~peer:"p" (dummy_evidence ()));
        Accountability.suspect t ~peer:"p" ~now:1.0 ~reason:"r";
        check_bool "exposed" true (Accountability.is_exposed t "p"));
    Alcotest.test_case "counts" `Quick (fun () ->
        let t = Accountability.create () in
        Accountability.suspect t ~peer:"a" ~now:0. ~reason:"r";
        ignore (Accountability.expose t ~peer:"b" (dummy_evidence ()));
        check_bool "counts" true (Accountability.counts t = (1, 1)));
  ]

(* ---------------- Messages ---------------- *)

let messages_tests =
  let log = mk_log () in
  let _ = Commitment.Log.append log ~source:None ~ids:[ 1; 2 ] in
  let digest = Commitment.Log.current_digest log in
  let light = Commitment.Log.current_digest_light log in
  let roundtrip msg =
    let msg' = Messages.decode (Messages.encode msg) in
    Messages.encode msg' = Messages.encode msg
  in
  [
    Alcotest.test_case "all variants roundtrip" `Quick (fun () ->
        let tx = mk_tx "m" in
        let block = mk_block ~txids:[ tx.Tx.id ] () in
        let msgs =
          [
            Messages.Submit tx;
            Messages.Commit_request { digest = light; delta = [ 1; 2 ]; want = [ 3 ]; appended = [ 1 ] };
            Messages.Commit_response { digest = light; want = []; delta = [ 9 ]; appended = [] };
            Messages.Tx_batch [ tx; mk_tx "m2" ];
            Messages.Digest_share digest;
            Messages.Digest_request { owner = Signer.id alice; seq = 4 };
            Messages.Digest_reply [ digest; light ];
            Messages.Suspicion_note
              { suspect = Signer.id bob; reporter = Signer.id alice;
                last_digest = Some light; reason = "timeout" };
            Messages.Suspicion_note
              { suspect = Signer.id bob; reporter = Signer.id alice;
                last_digest = None; reason = "" };
            Messages.Block_announce block;
          ]
        in
        List.iter (fun m -> check_bool (Messages.tag m) true (roundtrip m)) msgs);
    Alcotest.test_case "tags are namespaced" `Quick (fun () ->
        check_str "proto" "lo" (Lo_net.Mux.proto_of_tag (Messages.tag (Messages.Tx_batch []))));
    Alcotest.test_case "junk rejected" `Quick (fun () ->
        check_bool "raises" true
          (match Messages.decode "\xff junk" with
          | exception Lo_codec.Reader.Malformed _ -> true
          | _ -> false));
    Alcotest.test_case "light digests keep messages small" `Quick (fun () ->
        let light_req =
          Messages.Commit_request { digest = light; delta = []; want = []; appended = [] }
        in
        check_bool "small" true (Messages.size light_req < 300);
        let full_req =
          Messages.Commit_request { digest; delta = []; want = []; appended = [] }
        in
        check_bool "bigger" true (Messages.size full_req > Messages.size light_req));
  ]

(* Hostile bytes: mutated encodings of every constructor. A decode
   either returns or raises [Malformed], and what it allocates is
   bounded by the input's length (a declared count must not buy an
   allocation the bytes cannot back). *)
(* ---------------- World pool ---------------- *)

(* [Interner.Tx_pool.decode] against [Tx.decode], and the pool's cached
   syndrome powers against [Sketch.add_all]. Each decode input sits
   behind a junk prefix and before a junk suffix in its reader, so
   absolute offsets and the stopping position are both exercised, and
   each is decoded twice through one long-lived pool: a first sight and
   a repeat, which must be a hit returning the same instance. *)
let tx_pool_tests =
  let module Reader = Lo_codec.Reader in
  let module W = Lo_codec.Writer in
  let module Sketch = Lo_sketch.Sketch in
  let pool = Interner.Tx_pool.create ~initial:4 () in
  let reader prefix input =
    let data = prefix ^ input ^ "tail" in
    Reader.of_substring data ~pos:(String.length prefix)
      ~len:(String.length input + 4)
  in
  let outcome decode r =
    match decode r with
    | tx -> Ok (tx, Reader.pos r)
    | exception Reader.Malformed _ -> Error ()
  in
  let same_fields (a : Tx.t) (b : Tx.t) =
    a.Tx.id = b.Tx.id && a.origin = b.origin && a.fee = b.fee
    && Int64.equal (Int64.bits_of_float a.created_at)
         (Int64.bits_of_float b.created_at)
    && a.payload = b.payload && a.signature = b.signature
  in
  let agrees ?(prefix = "pre") input =
    let direct = outcome Tx.decode (reader prefix input) in
    let before = Interner.Tx_pool.stats pool in
    let first = outcome (Interner.Tx_pool.decode pool) (reader prefix input) in
    let again = outcome (Interner.Tx_pool.decode pool) (reader "" input) in
    let after = Interner.Tx_pool.stats pool in
    match (direct, first, again) with
    | Error (), Error (), Error () ->
        after.decode_hits = before.decode_hits
        && after.decode_misses = before.decode_misses
    | Ok (d, dpos), Ok (f, fpos), Ok (g, gpos) ->
        same_fields d f && dpos = fpos
        && gpos = fpos - String.length prefix
        && g == f
        && after.decode_hits >= before.decode_hits + 1
        && after.decode_hits + after.decode_misses
           = before.decode_hits + before.decode_misses + 2
    | _ -> false
  in
  let wire ~fee_bytes ~us ~len_bytes ~payload ~signature =
    String.make Signer.id_size 'o' ^ fee_bytes ^ us ^ len_bytes ^ payload
    ^ signature
  in
  let varint v =
    let w = W.create () in
    W.varint w v;
    W.contents w
  in
  let u64 v =
    let w = W.create () in
    W.u64 w v;
    W.contents w
  in
  let sig_ = String.make Signer.signature_size 's' in
  let over_long =
    let n = Tx.max_payload_size + 1 in
    wire ~fee_bytes:(varint 5) ~us:(u64 7) ~len_bytes:(varint n)
      ~payload:(String.make n 'p') ~signature:sig_
  in
  let encoding =
    QCheck2.Gen.(
      let* fee = oneof [ int_bound 127; int_bound 10_000_000 ] in
      let* payload = string_size (int_bound 150) in
      let* us = int_bound 10_000_000 in
      let tx = mk_tx ~fee ~created_at:(float_of_int us /. 1e6) payload in
      let s = Tx.to_string tx in
      let fee_end = Signer.id_size + String.length (varint fee) in
      let len_at = fee_end + 8 in
      let len_end = len_at + String.length (varint (String.length payload)) in
      let pad s ~at ~until =
        (* the same value with one more, empty, continuation byte *)
        let v = String.sub s at (until - at) in
        let last = Char.code v.[String.length v - 1] in
        String.sub s 0 at
        ^ String.sub v 0 (String.length v - 1)
        ^ String.make 1 (Char.chr (last lor 0x80))
        ^ "\x00"
        ^ String.sub s until (String.length s - until)
      in
      oneof
        [
          return s;
          return (pad s ~at:Signer.id_size ~until:fee_end);
          return (pad s ~at:len_at ~until:len_end);
          map (fun k -> String.sub s 0 k) (int_bound (String.length s - 1));
          map2
            (fun i c ->
              let b = Bytes.of_string s in
              Bytes.set b i c;
              Bytes.to_string b)
            (int_bound (String.length s - 1))
            char;
        ])
  in
  let ids_gen =
    QCheck2.Gen.(
      let* capacity = int_range 1 300 in
      let* distinct = int_range 1 1300 in
      let* extra = list_size (int_bound 600) (int_bound (distinct - 1)) in
      let* size = int_range 1 40 in
      return (capacity, distinct, extra, size))
  in
  let universe n =
    Array.init n (fun i -> Short_id.of_txid (Lo_crypto.Sha256.digest (string_of_int i)))
  in
  let rec chunks size = function
    | [] -> []
    | l ->
        let rec take k acc = function
          | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let c, rest = take size [] l in
        c :: chunks size rest
  in
  let sketch_bytes s =
    let w = W.create () in
    Sketch.encode w s;
    W.contents w
  in
  [
    Alcotest.test_case "every truncation and byte of valid encodings" `Quick
      (fun () ->
        List.iter
          (fun s ->
            check_bool "intact" true (agrees s);
            for i = 0 to String.length s - 1 do
              check_bool (Printf.sprintf "cut at %d" i) true
                (agrees (String.sub s 0 i));
              let b = Bytes.of_string s in
              Bytes.set b i '\xff';
              check_bool (Printf.sprintf "0xff at %d" i) true
                (agrees (Bytes.to_string b))
            done)
          [ Tx.to_string (mk_tx "pool"); Tx.to_string (mk_tx ~fee:300 "") ]);
    Alcotest.test_case "over-long payloads are rejected alike" `Quick
      (fun () ->
        check_bool "over-long" true (agrees over_long);
        check_bool "cut over-long" true
          (agrees (String.sub over_long 0 (String.length over_long - 1))));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~print:Lo_crypto.Hex.encode
         ~name:"pooled decode = Tx.decode" encoding agrees);
    qtest "pooled sketches = Sketch.add_all" ~count:60 ids_gen
      (fun (capacity, distinct, extra, size) ->
        let u = universe distinct in
        let ids = Array.to_list u @ List.map (fun i -> u.(i)) extra in
        let pooled = Sketch.create ~capacity () in
        let direct = Sketch.create ~capacity () in
        List.iter
          (fun bundle ->
            Interner.Tx_pool.sketch_add_all pool pooled bundle;
            Sketch.add_all direct bundle)
          (chunks size ids);
        sketch_bytes pooled = sketch_bytes direct);
    qtest "pooled logs = unpooled logs, one pool, two capacities" ~count:20
      ids_gen (fun (capacity, distinct, extra, size) ->
        let world = Interner.Tx_pool.create () in
        let u = universe distinct in
        let bundles =
          chunks size (Array.to_list u @ List.map (fun i -> u.(i)) extra)
        in
        List.for_all
          (fun sketch_capacity ->
            let log ?tx_pool () =
              let l = Commitment.Log.create ~sketch_capacity ?tx_pool ~signer:alice () in
              List.iter
                (fun ids -> ignore (Commitment.Log.append l ~source:None ~ids))
                bundles;
              Commitment.Log.current_digest l
            in
            let a = log ~tx_pool:world () and b = log () in
            Commitment.signing_bytes a = Commitment.signing_bytes b
            && Option.map sketch_bytes a.Commitment.sketch
               = Option.map sketch_bytes b.Commitment.sketch)
          [ capacity; 300 - capacity + 1 ]);
    Alcotest.test_case "repeat ids hit the cached powers" `Quick (fun () ->
        let world = Interner.Tx_pool.create () in
        let s = Sketch.create ~capacity:250 () in
        Interner.Tx_pool.sketch_add_all world s [ 5; 6 ];
        Interner.Tx_pool.sketch_add_all world s [ 5 ];
        let st = Interner.Tx_pool.stats world in
        check_int "misses" 2 st.power_misses;
        check_int "hits" 1 st.power_hits;
        check_bool "sketch of {6}" true
          (sketch_bytes s = sketch_bytes (Sketch.of_list ~capacity:250 [ 6 ])));
    Alcotest.test_case "invalid ids raise as in Sketch.add_all" `Quick
      (fun () ->
        List.iter
          (fun capacity ->
            List.iter
              (fun bad ->
                let raises add =
                  match add (Sketch.create ~capacity ()) [ 7; bad ] with
                  | () -> None
                  | exception Invalid_argument m -> Some m
                in
                check_bool
                  (Printf.sprintf "capacity %d, id %d" capacity bad)
                  true
                  (raises Sketch.add_all <> None
                  && raises Sketch.add_all
                     = raises (Interner.Tx_pool.sketch_add_all pool)))
              [ 0; -3; 1 lsl 32 ])
          [ 1; 250; 251 ]);
  ]

let decode_fuzz_tests =
  let log = mk_log () in
  let _ = Commitment.Log.append log ~source:None ~ids:[ 1; 2 ] in
  let older = Commitment.Log.current_digest log in
  let _ = Commitment.Log.append log ~source:None ~ids:[ 3 ] in
  let digest = Commitment.Log.current_digest log in
  let light = Commitment.Log.current_digest_light log in
  let tx = mk_tx "fuzz" in
  let block = mk_block ~txids:[ tx.Tx.id ] () in
  let valid =
    Array.map Messages.encode
      [|
        Messages.Submit tx;
        Messages.Submit_ack
          { txid = tx.Tx.id; ack_signature = String.make Signer.signature_size 's' };
        Messages.Commit_request
          { digest; delta = [ 1; 2 ]; want = [ 3 ]; appended = [ 3 ] };
        Messages.Commit_response
          { digest = light; want = [ 7 ]; delta = [ 9 ]; appended = [] };
        Messages.Tx_batch [ tx; mk_tx "fuzz-2" ];
        Messages.Digest_share digest;
        Messages.Digest_request { owner = Signer.id alice; seq = 4 };
        Messages.Digest_reply [ older; light ];
        Messages.Suspicion_note
          { suspect = Signer.id bob; reporter = Signer.id alice;
            last_digest = Some digest; reason = "timeout" };
        Messages.Suspicion_withdraw
          { suspect = Signer.id bob; reporter = Signer.id alice };
        Messages.Exposure_note
          (Evidence.Block_bundle_violation
             { block; older; newer = digest; omitted_tx = Some tx });
        Messages.Block_announce block;
      |]
  in
  let overwrite s i c =
    let b = Bytes.of_string s in
    Bytes.set b i c;
    Bytes.to_string b
  in
  (* Bytes allocated so far. [Gc.allocated_bytes] is not used: on
     OCaml 5.1 it counts minor allocations in words, and jumps by the
     minor heap's size at a minor collection. *)
  let allocated () =
    let s = Gc.quick_stat () in
    (Gc.minor_words () +. s.major_words -. s.promoted_words)
    *. float_of_int (Sys.word_size / 8)
  in
  (* The valid encodings above cost 2.5-10 bytes per input byte, the
     high end on the shortest, where a few hundred fixed bytes
     dominate. *)
  let budget input = (16 * String.length input) + 4096 in
  let decode_cost input =
    let before = allocated () in
    let outcome =
      match Messages.decode input with
      | _ -> Ok ()
      | exception Lo_codec.Reader.Malformed _ -> Ok ()
      | exception e -> Error (Printexc.to_string e)
    in
    (outcome, allocated () -. before)
  in
  let decodes_bounded input =
    match decode_cost input with
    | Error e, _ -> QCheck2.Test.fail_reportf "escaped: %s" e
    | Ok (), used ->
        (* The lesser of two runs, in case a collection skews one. *)
        let used = Float.min used (snd (decode_cost input)) in
        used <= float_of_int (budget input)
        || QCheck2.Test.fail_reportf "allocated %.0f bytes on %d input bytes"
             used (String.length input)
  in
  let mutation =
    QCheck2.Gen.(
      let* m = int_bound (Array.length valid - 1) in
      let s = valid.(m) in
      let len = String.length s in
      frequency
        [
          (1, map (fun k -> String.sub s 0 k) (int_bound (len - 1)));
          ( 2,
            map2
              (fun i c -> overwrite s i c)
              (int_bound (len - 1))
              (frequency [ (1, char); (1, oneofl [ '\x00'; '\x7f'; '\xff' ]) ]) );
          ( 1,
            let* o = int_bound (Array.length valid - 1) in
            let t = valid.(o) in
            map2
              (fun i j -> String.sub s 0 i ^ String.sub t j (String.length t - j))
              (int_bound len)
              (int_bound (String.length t)) );
        ])
  in
  [
    Alcotest.test_case "valid encodings decode within the budget" `Quick
      (fun () ->
        Array.iter
          (fun s ->
            check_bool "roundtrip" true
              (Messages.encode (Messages.decode s) = s);
            check_bool "bounded" true (decodes_bounded s))
          valid);
    Alcotest.test_case "every truncation and 0xff byte is Malformed-or-ok, bounded"
      `Quick (fun () ->
        Array.iteri
          (fun m s ->
            for i = 0 to String.length s - 1 do
              check_bool
                (Printf.sprintf "message %d cut at %d" m i)
                true
                (decodes_bounded (String.sub s 0 i));
              check_bool
                (Printf.sprintf "message %d, 0xff at %d" m i)
                true
                (decodes_bounded (overwrite s i '\xff'))
            done)
          valid);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:2000 ~print:Lo_crypto.Hex.encode
         ~name:"truncations, byte flips and splices" mutation decodes_bounded);
  ]

let directory_tests =
  [
    Alcotest.test_case "bidirectional lookup" `Quick (fun () ->
        let d = Directory.create ~ids:[| "aa"; "bb"; "cc" |] in
        check_int "size" 3 (Directory.size d);
        check_str "id" "bb" (Directory.id_of d 1);
        check_bool "index" true (Directory.index_of d "cc" = Some 2);
        check_bool "unknown" true (Directory.index_of d "zz" = None));
  ]

let settled_inspection_tests =
  (* Settled-prefix and Settled-omission handling in the inspector. *)
  let creator = Signer.make scheme ~seed:"settled-creator" in
  let t1 = mk_tx "s-one" and t2 = mk_tx "s-two" in
  let id1 = Tx.short_id t1 and id2 = Tx.short_id t2 in
  let knowledge settled =
    {
      Inspector.bundle_of_seq =
        (fun seq -> if seq = 1 then Some [ id1 ] else if seq = 2 then Some [ id2 ] else None);
      find_tx = (fun id -> if id = id1 then Some t1 else if id = id2 then Some t2 else None);
      settled_height = settled;
    }
  in
  let block ~start_seq ~txids ~bundle_sizes ~omissions =
    Block.create ~signer:creator ~height:5 ~prev_hash:Block.genesis_hash
      ~start_seq ~commit_seq:2 ~fee_threshold:0 ~txids ~bundle_sizes
      ~appendix:0 ~omissions ~timestamp:9.0
  in
  [
    Alcotest.test_case "valid settled omission accepted" `Quick (fun () ->
        let b =
          block ~start_seq:1
            ~txids:(Order.sort_bundle ~seed:Block.genesis_hash ~bundle_seq:2 [ id2 ]
                    |> List.map (fun _ -> t2.Tx.id))
            ~bundle_sizes:[ 1 ] ~omissions:[]
        in
        let report =
          Inspector.inspect b (knowledge (fun id -> if id = id1 then Some 2 else None))
        in
        check_bool "clean" true (Inspector.clean report);
        check_bool "prefix verified" true (report.Inspector.unverifiable_omissions = []));
    Alcotest.test_case "unsettled prefix flagged unverifiable" `Quick (fun () ->
        let b =
          block ~start_seq:1
            ~txids:[ t2.Tx.id ] ~bundle_sizes:[ 1 ] ~omissions:[]
        in
        let report = Inspector.inspect b (knowledge (fun _ -> None)) in
        (* accuracy first: not a violation, but tracked *)
        check_bool "clean" true (Inspector.clean report);
        check_bool "tracked" true
          (List.mem (1, id1) report.Inspector.unverifiable_omissions));
    Alcotest.test_case "settled claim for future height unverifiable" `Quick
      (fun () ->
        let b =
          block ~start_seq:0 ~txids:[ t2.Tx.id ] ~bundle_sizes:[ 0; 1 ]
            ~omissions:[ (id1, Block.Settled) ]
        in
        let report =
          Inspector.inspect b
            (knowledge (fun id -> if id = id1 then Some 9 (* future *) else None))
        in
        check_bool "clean (accuracy)" true (Inspector.clean report);
        check_bool "tracked" true
          (List.mem (1, id1) report.Inspector.unverifiable_omissions));
  ]

let submit_ack_tests =
  [
    Alcotest.test_case "submit-ack roundtrip" `Quick (fun () ->
        let tx = mk_tx "ack-me" in
        let msg =
          Messages.Submit_ack { txid = tx.Tx.id; ack_signature = String.make 64 's' }
        in
        check_bool "roundtrip" true
          (Messages.encode (Messages.decode (Messages.encode msg)) = Messages.encode msg);
        check_str "tag" "lo:submit-ack" (Messages.tag msg));
    Alcotest.test_case "ack signing bytes bind the txid" `Quick (fun () ->
        let a = Node.ack_signing_bytes ~txid:(String.make 32 'a') in
        let b = Node.ack_signing_bytes ~txid:(String.make 32 'b') in
        check_bool "distinct" false (String.equal a b));
  ]

let short_id_tests =
  [
    Alcotest.test_case "nonzero and bounded" `Quick (fun () ->
        for i = 0 to 200 do
          let id = Short_id.of_txid (Lo_crypto.Sha256.digest (string_of_int i)) in
          check_bool "range" true (id >= 1 && id <= Short_id.max_value)
        done);
    Alcotest.test_case "deterministic" `Quick (fun () ->
        let d = Lo_crypto.Sha256.digest "x" in
        check_int "same" (Short_id.of_txid d) (Short_id.of_txid d));
    Alcotest.test_case "too short rejected" `Quick (fun () ->
        Alcotest.check_raises "short"
          (Invalid_argument "Short_id.of_txid: id too short") (fun () ->
            ignore (Short_id.of_txid "abc")));
  ]

(* ---------------- Tx wire fast path ---------------- *)

let tx_wire_tests =
  [
    Alcotest.test_case "unsigned_bytes is the signed prefix" `Quick (fun () ->
        let tx = mk_tx "prefix" in
        check_str "prefix"
          (Tx.unsigned_bytes tx ^ tx.Tx.signature)
          (Tx.to_string tx));
    Alcotest.test_case "non-minimal fee varint falls back to canonical id"
      `Quick (fun () ->
        (* fee 10 encodes as the single byte 0x0a at offset 33 (after
           the origin); 0x8a 0x00 decodes to the same value through a
           non-minimal continuation. The id must come out canonical —
           digest of the re-encoding, not of the received bytes. *)
        let tx = mk_tx ~fee:10 "nm" in
        let s = Tx.to_string tx in
        let nm =
          String.sub s 0 33 ^ "\x8a\x00"
          ^ String.sub s 34 (String.length s - 34)
        in
        let tx' = Tx.of_string nm in
        check_str "id" tx.Tx.id tx'.Tx.id;
        check_bool "prevalidates" true
          (Tx.prevalidate scheme tx' = Ok ()));
    Alcotest.test_case "non-minimal payload-length varint" `Quick (fun () ->
        let tx = mk_tx ~fee:0 "xyz" in
        let s = Tx.to_string tx in
        (* layout: origin(33) fee-varint(1) us(8) plen-varint(1) ... *)
        let nm =
          String.sub s 0 42 ^ "\x83\x00"
          ^ String.sub s 43 (String.length s - 43)
        in
        let tx' = Tx.of_string nm in
        check_str "id" tx.Tx.id tx'.Tx.id);
    qtest "wire roundtrip preserves id across fee widths"
      QCheck2.Gen.(
        triple (int_bound 10_000_000)
          (string_size (int_bound 200))
          (int_bound 1_000_000))
      (fun (fee, payload, us) ->
        let tx = mk_tx ~fee ~created_at:(float_of_int us /. 1e6) payload in
        let tx' = Tx.of_string (Tx.to_string tx) in
        tx'.Tx.id = tx.Tx.id
        && Tx.unsigned_bytes tx' = Tx.unsigned_bytes tx
        && Tx.prevalidate scheme tx' = Ok ());
  ]

(* ---------------- Batched ingest ---------------- *)

(* [Mempool.ingest_batch] against the per-transaction reference
   pipeline run with the same one-bundle-per-batch commit granularity:
   same mempool contents, same accepted/invalid/duplicate partition,
   same committed ids, byte-identical commitment digests. *)
let ingest_batch_tests =
  let corrupt_sig tx =
    let s = Bytes.of_string (Tx.to_string tx) in
    let off = Bytes.length s - 1 in
    Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 1));
    Tx.of_string (Bytes.to_string s)
  in
  let reference ?(keep = fun _ -> true) ?(m = Mempool.create ()) ~known txs =
    let accepted = ref [] and invalid = ref [] and dups = ref 0 in
    let fresh = ref [] in
    let seen = Hashtbl.create 16 in
    List.iteri
      (fun i tx ->
        match Tx.prevalidate scheme tx with
        | Error r -> invalid := (i, r) :: !invalid
        | Ok () ->
            if keep tx then begin
              let short = Tx.short_id tx in
              if (not (known short)) && not (Hashtbl.mem seen short) then begin
                Hashtbl.add seen short ();
                fresh := short :: !fresh
              end;
              match
                Mempool.add m ~tx ~received_at:7. ~from_peer:(Some "p")
              with
              | `Added e -> accepted := e :: !accepted
              | `Duplicate -> incr dups
            end)
      txs;
    (m, List.rev !accepted, List.rev !invalid, !dups, List.rev !fresh)
  in
  let run_batch ?keep ?(m = Mempool.create ()) ~known txs =
    let committed = ref [] in
    let r =
      Mempool.ingest_batch ?keep ~scheme ~known
        ~commit:(fun ids -> committed := ids)
        ~received_at:7. ~from_peer:(Some "p") m txs
    in
    (m, r, !committed)
  in
  let ids_of entries =
    List.map (fun (e : Mempool.entry) -> e.Mempool.tx.Tx.id) entries
  in
  let digest_after ids =
    let log = Commitment.Log.create ~signer:alice () in
    if ids <> [] then ignore (Commitment.Log.append log ~source:None ~ids);
    Commitment.signing_bytes (Commitment.Log.current_digest log)
  in
  (* Each path first admits [first] on its own, and the ids that batch
     commits join [known] unless [forget] holds for them: [forget]
     leaves content held but not committed, like the equivocator's
     alt-log transaction. Then both paths take [txs]. *)
  let agree ?keep ?(known = fun _ -> false) ?(first = [])
      ?(forget = fun _ -> false) txs =
    let known_after fresh s =
      known s || (List.mem s fresh && not (forget s))
    in
    let m1, _, _, _, fresh1 = reference ?keep ~known first in
    let known1 = known_after fresh1 in
    let m1, acc1, inv1, dup1, fresh = reference ?keep ~m:m1 ~known:known1 txs in
    let m2, _, first2 = run_batch ?keep ~known first in
    let known2 = known_after first2 in
    let m2, r, committed = run_batch ?keep ~m:m2 ~known:known2 txs in
    let held m tx =
      Option.map
        (fun (e : Mempool.entry) -> e.Mempool.tx.Tx.id)
        (Mempool.find_short m (Tx.short_id tx))
    in
    fresh1 = first2
    && Mempool.size m1 = Mempool.size m2
    && List.for_all (fun tx -> held m1 tx = held m2 tx) (first @ txs)
    && ids_of acc1 = ids_of r.Mempool.accepted
    && List.map fst inv1 = List.map fst r.Mempool.invalid
    && dup1 = r.Mempool.duplicates
    && fresh = committed
    && fresh = r.Mempool.committed
    && digest_after fresh = digest_after committed
  in
  [
    Alcotest.test_case "empty batch" `Quick (fun () ->
        let _, r, committed = run_batch ~known:(fun _ -> false) [] in
        check_bool "no commit" true (committed = []);
        check_bool "all empty" true
          (r.Mempool.accepted = [] && r.Mempool.invalid = []
          && r.Mempool.duplicates = 0 && r.Mempool.committed = []));
    Alcotest.test_case "mixed batch matches reference" `Quick (fun () ->
        let a = mk_tx "ba" and b = mk_tx "bb" and c = mk_tx "bc" in
        let txs = [ a; corrupt_sig b; a; b; c; c ] in
        check_bool "agree" true (agree txs));
    Alcotest.test_case "known ids are not re-committed" `Quick (fun () ->
        let a = mk_tx "ka" and b = mk_tx "kb" in
        let known s = s = Tx.short_id a in
        let _, r, committed = run_batch ~known [ a; b ] in
        check_bool "only b" true (committed = [ Tx.short_id b ]);
        check_int "both stored" 2 (List.length r.Mempool.accepted);
        check_bool "agree" true (agree ~known [ a; b ]));
    Alcotest.test_case "censored txs are skipped in both paths" `Quick
      (fun () ->
        let keep tx = tx.Tx.payload <> "censored" in
        let txs = [ mk_tx "ok1"; mk_tx "censored"; mk_tx "ok2" ] in
        let _, r, committed = run_batch ~keep ~known:(fun _ -> false) txs in
        check_int "kept" 2 (List.length r.Mempool.accepted);
        check_int "committed" 2 (List.length committed);
        check_bool "agree" true (agree ~keep txs));
    qtest "ingest_batch = iterated reference" ~count:120
      QCheck2.Gen.(
        list_size (int_bound 16) (pair (int_bound 5) (int_bound 4)))
      (fun spec ->
        let base =
          Array.init 6 (fun i -> mk_tx ~fee:i (Printf.sprintf "qb%d" i))
        in
        let txs =
          List.map
            (fun (k, corrupt) ->
              if corrupt = 0 then corrupt_sig base.(k) else base.(k))
            spec
        in
        agree txs);
    qtest "ingest_batch with known set = reference" ~count:80
      QCheck2.Gen.(
        pair
          (list_size (int_bound 12) (int_bound 5))
          (list_size (int_bound 3) (int_bound 5)))
      (fun (picks, known_picks) ->
        let base =
          Array.init 6 (fun i -> mk_tx ~fee:(i + 7) (Printf.sprintf "qk%d" i))
        in
        let txs = List.map (fun k -> base.(k)) picks in
        let known_set =
          List.map (fun k -> Tx.short_id base.(k)) known_picks
        in
        agree ~known:(fun s -> List.mem s known_set) txs);
    Alcotest.test_case "held content: one batch of every kind" `Quick
      (fun () ->
        let a = mk_tx "ha" and b = mk_tx "hb" and c = mk_tx "hc" in
        let d = mk_tx "hd" and censored = mk_tx "hx" in
        let keep tx = tx.Tx.payload <> "hx" in
        let first = [ a; b; censored ] in
        let forget s = s = Tx.short_id b in
        let txs = [ a; b; corrupt_sig a; c; c; censored; d; a ] in
        check_bool "agree" true (agree ~keep ~first ~forget txs);
        (* [a] held and committed: duplicates, no commit. [b] held but
           not committed: committed again. The corrupted copy of [a] is
           a different id, so it is checked and invalid. *)
        let m, _, _ = run_batch ~keep ~known:(fun _ -> false) first in
        let known s = s = Tx.short_id a in
        let _, r, committed = run_batch ~keep ~m ~known txs in
        check_bool "invalid: the corrupted copy" true
          (List.map fst r.Mempool.invalid = [ 2 ]);
        check_int "duplicates: a twice, b, c's repeat" 4 r.Mempool.duplicates;
        check_bool "committed: b, c, d" true
          (committed = List.map Tx.short_id [ b; c; d ]));
    Alcotest.test_case "held and committed content is not re-verified" `Quick
      (fun () ->
        (* Placed with [add], whose caller vouches for the signature,
           and never checked: a later copy is a duplicate, not invalid,
           so its signature was not checked either. *)
        let bad = corrupt_sig (mk_tx "unchecked") in
        let m = Mempool.create () in
        ignore (Mempool.add m ~tx:bad ~received_at:1. ~from_peer:None);
        let known s = s = Tx.short_id bad in
        let _, r, committed = run_batch ~m ~known [ bad ] in
        check_bool "not invalid" true (r.Mempool.invalid = []);
        check_int "duplicate" 1 r.Mempool.duplicates;
        check_bool "no commit" true (committed = []);
        (* Not committed: the same entry takes the checked path. *)
        let _, r, _ = run_batch ~m ~known:(fun _ -> false) [ bad ] in
        check_bool "held, not committed: checked" true
          (List.map fst r.Mempool.invalid = [ 0 ]));
    qtest "ingest_batch over held content = reference" ~count:150
      QCheck2.Gen.(
        quad
          (list_size (int_bound 6) (pair (int_bound 5) bool))
          (list_size (int_bound 16) (pair (int_bound 5) (int_bound 4)))
          bool
          (list_size (int_bound 2) (int_bound 5)))
      (fun (first_spec, spec, censor, known_bad) ->
        let base =
          Array.init 6 (fun i -> mk_tx ~fee:(i + 20) (Printf.sprintf "qh%d" i))
        in
        let keep =
          if censor then Some (fun tx -> tx.Tx.fee <> 25) else None
        in
        let first = List.map (fun (k, _) -> base.(k)) first_spec in
        let forgotten =
          List.filter_map
            (fun (k, forget) -> if forget then Some (Tx.short_id base.(k)) else None)
            first_spec
        in
        let txs =
          List.map
            (fun (k, corrupt) ->
              if corrupt = 0 then corrupt_sig base.(k) else base.(k))
            spec
        in
        (* Committed ids whose content never arrived: a corrupted copy
           is not held, so it is checked. *)
        let known_set =
          List.map (fun k -> Tx.short_id (corrupt_sig base.(k))) known_bad
        in
        agree ?keep
          ~known:(fun s -> List.mem s known_set)
          ~first
          ~forget:(fun s -> List.mem s forgotten)
          txs);
  ]

(* ---------------- Stores against their references ---------------- *)

(* Two transactions whose ids share their short id (found by search). *)
let collide_a = mk_tx "collide-88515"
let collide_b = mk_tx "collide-102032"

let same_digest (a : Commitment.digest) (b : Commitment.digest) =
  Commitment.equal_content a b
  && Commitment.is_full a = Commitment.is_full b
  && String.equal a.Commitment.signature b.Commitment.signature

let same_opt eq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> eq a b
  | _ -> false

(* A directory of [me] and one peer, with the calls a tracker makes
   recorded: each exposure, in order. *)
let tracker_env ~me ~peer ~rng_seed =
  let ids = [| Signer.id me; Signer.id peer |] in
  let exposed = ref [] in
  let log = Commitment.Log.create ~signer:me () in
  let env =
    {
      Node_env.config = Node_env.default_config scheme;
      hooks = Node_env.no_hooks ();
      trace = None;
      my_id = ids.(0);
      my_index = 0;
      signer = me;
      rng = Lo_net.Rng.create rng_seed;
      acc = Accountability.create ();
      primary_log = log;
      now = (fun () -> 0.);
      send = (fun ~dst:_ _ -> ());
      broadcast = (fun _ -> ());
      schedule = (fun ~delay:_ _ -> ());
      id_of = (fun i -> ids.(i));
      index_of =
        (fun id ->
          if String.equal id ids.(0) then Some 0
          else if String.equal id ids.(1) then Some 1
          else None);
      population = (fun () -> 2);
      neighbors = (fun () -> [ 1 ]);
      log_for = (fun ~peer_index:_ -> log);
      wire_digest = (fun ~peer_index:_ -> Commitment.Log.current_digest log);
      commit =
        (fun ~source ~ids -> ignore (Commitment.Log.append log ~source ~ids));
      expose = (fun ~accused e -> exposed := (accused, e) :: !exposed);
      retry_inspections = (fun ~owner:_ -> ());
      record_deviation = (fun ~kind:_ ~height:_ -> ());
    }
  in
  (env, exposed)

let store_tests =
  let open Store_ref in
  [
    qtest "mempool = two-index reference" ~count:300
      QCheck2.Gen.(list_size (int_bound 30) (int_bound 9))
      (fun picks ->
        let pool =
          Array.of_list
            (collide_a :: collide_b
            :: List.init 8 (fun i -> mk_tx (Printf.sprintf "m%d" i)))
        in
        let m = Mempool.create () and r = Mempool_ref.create () in
        let id_of (e : Mempool.entry) = e.Mempool.tx.Tx.id in
        Tx.short_id collide_a = Tx.short_id collide_b
        && List.for_all
          (fun i ->
            let tx = pool.(i) in
            match
              ( Mempool.add m ~tx ~received_at:0. ~from_peer:None,
                Mempool_ref.add r tx )
            with
            | `Added _, `Added | `Duplicate, `Duplicate -> true
            | _ -> false)
          picks
        && Mempool.size m = Mempool_ref.size r
        && Array.for_all
             (fun (tx : Tx.t) ->
               let short = Tx.short_id tx in
               let ref_id = Option.map (fun (t : Tx.t) -> t.Tx.id) in
               Option.map id_of (Mempool.find_short m short)
               = ref_id (Mempool_ref.find_short r short)
               && Option.map id_of (Mempool.find_id m tx.Tx.id)
                  = ref_id (Mempool_ref.find_id r tx.Tx.id)
               && Mempool.mem_short m short
                  = (Mempool_ref.find_short r short <> None))
             pool);
    qtest "commitment log = bundle-list and digest-table reference" ~count:60
      QCheck2.Gen.(
        pair (oneofl [ 1; 3; max_int ])
          (list_size (int_bound 16)
             (list_size (int_bound 5) (int_range (-2) 40))))
      (fun (digest_history, bundles) ->
        let log = Commitment.Log.create ~digest_history ~signer:alice () in
        let r = Log_ref.create ~digest_history ~signer:alice in
        let bundle_pair (b : Commitment.Log.bundle) =
          (b.Commitment.Log.seq, b.Commitment.Log.ids)
        in
        let agree () =
          let seq = Commitment.Log.seq log in
          seq = r.Log_ref.seq
          && Commitment.Log.counter log = r.Log_ref.counter
          && same_digest (Commitment.Log.current_digest log)
               (Log_ref.current_digest r)
          && List.for_all
               (fun seq ->
                 same_opt same_digest
                   (Commitment.Log.digest_at log ~seq)
                   (Log_ref.digest_at r ~seq))
               (List.init (seq + 3) (fun i -> i - 1))
          && List.map bundle_pair (Commitment.Log.bundles log)
             = Log_ref.bundles r
          && Option.map bundle_pair (Commitment.Log.newest_bundle log)
             = Log_ref.newest_bundle r
        in
        agree ()
        && List.for_all
             (fun ids ->
               ignore (Commitment.Log.append log ~source:None ~ids);
               Log_ref.append r ids;
               agree ())
             bundles);
    qtest "peer tracker = hash-table reference, out of order, past the cap"
      ~count:10
      QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 40))
      (fun (seed, window) ->
        let rs = Random.State.make [| seed |] in
        let me = Signer.make scheme ~seed:"tracker-me" in
        let peer = Signer.make scheme ~seed:"tracker-peer" in
        let n = Node_env.max_digests_per_peer + 40 in
        let fork_at = 1 + Random.State.int rs (n - 8) in
        (* One id per bundle; the fork shares the first [fork_at - 1]
           bundles, then commits ids of its own for five more. *)
        let log = Commitment.Log.create ~signer:peer () in
        let fork = Commitment.Log.create ~signer:peer () in
        for seq = 1 to n do
          let id = seq in
          ignore (Commitment.Log.append log ~source:None ~ids:[ id ]);
          if seq < fork_at then
            ignore (Commitment.Log.append fork ~source:None ~ids:[ id ])
          else if seq < fork_at + 5 then
            ignore (Commitment.Log.append fork ~source:None ~ids:[ 1_000_000 + id ])
        done;
        let arrivals =
          List.concat_map
            (fun seq ->
              let d = Option.get (Commitment.Log.digest_at log ~seq) in
              let key () = seq + Random.State.int rs window in
              match Random.State.int rs 4 with
              | 0 -> [ (key (), Commitment.strip_sketch d) ]
              | 1 -> [ (key (), Commitment.strip_sketch d); (key (), d) ]
              | _ -> [ (key (), d) ])
            (List.init (n + 1) Fun.id)
          @ List.map
              (fun seq ->
                ( seq + Random.State.int rs window,
                  Option.get (Commitment.Log.digest_at fork ~seq) ))
              (List.init 5 (fun i -> fork_at + i))
          |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
          |> List.map snd
        in
        let env, exposed = tracker_env ~me ~peer ~rng_seed:seed in
        let ref_env, ref_exposed = tracker_env ~me ~peer ~rng_seed:seed in
        let t = Peer_tracker.create () and r = Tracker_ref.create () in
        let owner = Signer.id peer in
        let steps_agree =
          List.for_all
            (fun (d : Commitment.digest) ->
              Peer_tracker.note_digest t env d;
              Tracker_ref.note_digest r ref_env d;
              if d.Commitment.seq mod 7 = 0 then begin
                Peer_tracker.note_appended t env ~owner ~seq:d.Commitment.seq
                  [ 7 ];
                Tracker_ref.note_appended r ~owner ~seq:d.Commitment.seq [ 7 ]
              end;
              same_opt ( == )
                (Peer_tracker.latest t ~peer:owner)
                (Tracker_ref.latest r ~peer:owner))
            arrivals
        in
        let evidence (accused, e) =
          match e with
          | Evidence.Conflicting_digests { older; newer } ->
              (accused, older.Commitment.seq, newer.Commitment.seq,
               older.Commitment.signature, newer.Commitment.signature)
          | _ -> (accused, -1, -1, "", "")
        in
        let snapshot_agree (o1, s1, d1) (o2, s2, d2) =
          String.equal o1 o2 && s1 = s2 && d1 == d2
        in
        let snaps = Peer_tracker.snapshots t in
        steps_agree
        && List.length snaps <= Node_env.max_digests_per_peer
        && List.length snaps = List.length (Tracker_ref.snapshots r)
        && List.for_all2 snapshot_agree snaps (Tracker_ref.snapshots r)
        && List.for_all
             (fun seq ->
               Peer_tracker.bundle_of_seq t ~owner ~seq
               = Tracker_ref.bundle_of_seq r ~owner ~seq)
             (List.init (n + 2) Fun.id)
        && !exposed <> []
        && List.map evidence !exposed = List.map evidence !ref_exposed
        && List.init 4 (fun _ -> Lo_net.Rng.int env.Node_env.rng 1_000_000)
           = List.init 4 (fun _ -> Lo_net.Rng.int ref_env.Node_env.rng 1_000_000));
  ]

(* ---------------- Wrong sketch decodes ---------------- *)

(* Found by search: each pair's Bloom clocks are equal (the estimate is
   0), so the delta decode is tried at capacity 8, where the merged
   sketches of a larger difference decode to a wrong set of 8 ids. *)
let wrong_decode_inputs =
  [
    ( [ 940259230; 828554411; 526559166; 966048465; 251543213; 788173206;
        662390076; 252770433 ],
      [ 940259230; 828554411; 526559166; 815670028; 865889385; 404476809;
        380988813; 160289745 ] );
    ( [ 289341788; 825836353; 876354959; 1007587506; 431589578; 523292388;
        1038038587; 889285753 ],
      [ 644156306; 508653755; 507602667; 381768850; 801400391; 688222501;
        722999840; 130584847 ] );
    ( [ 635071101; 750283466; 298640088; 336729314; 1043554076; 756730111;
        947404449 ],
      [ 589785897; 563088557; 1002733060; 892873987; 1001163039; 667867002;
        820204838 ] );
    ( [ 1071020573; 998869967; 376965790; 1001544551; 248342705; 1052855033;
        729212148 ],
      [ 1071020573; 256849710; 943649400; 957480471; 626197229; 982887838;
        904098113 ] );
  ]

let sketch_guard_tests =
  let me = Signer.make scheme ~seed:"guard-me" in
  let peer = Signer.make scheme ~seed:"guard-peer" in
  let digest_of signer ids =
    let log = Commitment.Log.create ~signer () in
    ignore (Commitment.Log.append log ~source:None ~ids);
    Commitment.Log.current_digest log
  in
  [
    Alcotest.test_case "a wrong delta decode commits no phantom ids" `Quick
      (fun () ->
        List.iter
          (fun (mine, theirs) ->
            let env, _ = tracker_env ~me ~peer ~rng_seed:1 in
            ignore
              (Commitment.Log.append env.Node_env.primary_log ~source:None
                 ~ids:mine);
            let tracker = Peer_tracker.create () in
            Peer_tracker.note_digest tracker env (digest_of peer theirs);
            let content =
              Content_sync.create ~mempool:(Mempool.create ())
                ~adversary:Adversary.Honest ()
            in
            let reconciler = Reconciler.create ~content ~tracker in
            Reconciler.reconcile_with reconciler env ~peer_index:1;
            let log = env.Node_env.primary_log in
            check_bool "only ids of either side" true
              (List.for_all
                 (fun id -> List.mem id mine || List.mem id theirs)
                 (Commitment.Log.oldest log (Commitment.Log.counter log))))
          wrong_decode_inputs);
    Alcotest.test_case "accounts_for: true differences pass, wrong ones fail"
      `Quick (fun () ->
        List.iter
          (fun (mine, theirs) ->
            let dm = digest_of me mine and dp = digest_of peer theirs in
            let clock (d : Commitment.digest) = d.Commitment.clock in
            let only a b = List.filter (fun id -> not (List.mem id b)) a in
            let held id = List.mem id mine in
            check_bool "truth" true
              (Commitment.accounts_for ~mine:(clock dm) ~peer:(clock dp) ~held
                 (only mine theirs @ only theirs mine));
            match
              Commitment.sketch_difference ~estimate:0
                (Option.get dm.Commitment.sketch)
                (Option.get dp.Commitment.sketch)
            with
            | Error `Decode_failure -> Alcotest.fail "expected a wrong decode"
            | Ok diff ->
                check_bool "wrong set" false
                  (List.sort compare diff
                  = List.sort compare (only mine theirs @ only theirs mine));
                check_bool "rejected" false
                  (Commitment.accounts_for ~mine:(clock dm) ~peer:(clock dp)
                     ~held diff))
          wrong_decode_inputs);
  ]

let () =
  Alcotest.run "lo_core_types"
    [
      ("tx", tx_tests);
      ("tx-wire", tx_wire_tests);
      ("ingest-batch", ingest_batch_tests);
      ("short-id", short_id_tests);
      ("commitment", commitment_tests);
      ("order", order_tests);
      ("mempool", mempool_tests);
      ("block", block_tests);
      ("policy", policy_tests);
      ("inspector-evidence", inspector_tests);
      ("settled-inspection", settled_inspection_tests);
      ("directory", directory_tests);
      ("submit-ack", submit_ack_tests);
      ("evidence-soundness", evidence_soundness_tests);
      ("accountability", accountability_tests);
      ("messages", messages_tests);
      ("decode-fuzz", decode_fuzz_tests);
      ("tx-pool", tx_pool_tests);
      ("stores", store_tests);
      ("sketch-guard", sketch_guard_tests);
    ]
