(* Tests for lo_bloom: the Bloom clock's partial-order laws and wire
   format. *)

open Lo_bloom

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let clock_of_ints ?(cells = 32) ids =
  let c = Bloom_clock.create ~cells () in
  List.iter (Bloom_clock.add_int c) ids;
  c

let clock_tests =
  [
    Alcotest.test_case "fresh clocks are equal" `Quick (fun () ->
        check_bool "equal" true
          (Bloom_clock.compare_clocks (Bloom_clock.create ()) (Bloom_clock.create ())
           = Bloom_clock.Equal));
    Alcotest.test_case "superset dominates" `Quick (fun () ->
        let small = clock_of_ints [ 1; 2; 3 ] in
        let big = clock_of_ints [ 1; 2; 3; 4; 5 ] in
        check_bool "dominates" true (Bloom_clock.dominates big small);
        check_bool "not reverse" false (Bloom_clock.dominates small big));
    Alcotest.test_case "same multiset = equal" `Quick (fun () ->
        let a = clock_of_ints [ 10; 20; 30 ] in
        let b = clock_of_ints [ 30; 10; 20 ] in
        check_bool "equal" true (Bloom_clock.compare_clocks a b = Bloom_clock.Equal));
    Alcotest.test_case "disjoint large sets are concurrent" `Quick (fun () ->
        let a = clock_of_ints (List.init 40 (fun i -> i + 1)) in
        let b = clock_of_ints (List.init 40 (fun i -> i + 1000)) in
        check_bool "concurrent" true
          (Bloom_clock.compare_clocks a b = Bloom_clock.Concurrent));
    Alcotest.test_case "count" `Quick (fun () ->
        check_int "count" 5 (Bloom_clock.count (clock_of_ints [ 1; 2; 3; 4; 5 ])));
    Alcotest.test_case "estimate bounds difference" `Quick (fun () ->
        let a = clock_of_ints [ 1; 2; 3 ] in
        let b = clock_of_ints [ 1; 2; 3; 7; 8; 9 ] in
        let est = Bloom_clock.estimate_difference a b in
        check_bool "est >= 1" true (est >= 1);
        check_bool "est <= 3" true (est <= 3));
    Alcotest.test_case "diff_cells empty iff equal counters" `Quick (fun () ->
        let a = clock_of_ints [ 5; 6 ] and b = clock_of_ints [ 5; 6 ] in
        check_bool "no diff" true (Bloom_clock.diff_cells a b = []));
    Alcotest.test_case "merge dominates both" `Quick (fun () ->
        let a = clock_of_ints [ 1; 2 ] and b = clock_of_ints [ 2; 3; 4 ] in
        let m = Bloom_clock.merge a b in
        check_bool "a" true (Bloom_clock.dominates m a);
        check_bool "b" true (Bloom_clock.dominates m b));
    Alcotest.test_case "encoded size matches paper layout" `Quick (fun () ->
        (* 32 cells * 2 bytes + 2 (cells) + 4 (count) = 70 bytes; the
           paper quotes 68 for the cells+count. *)
        let c = Bloom_clock.create ~cells:32 () in
        check_int "size" 70 (Bloom_clock.encoded_size c);
        let w = Lo_codec.Writer.create () in
        Bloom_clock.encode w c;
        check_int "encoded" 70 (Lo_codec.Writer.length w));
    Alcotest.test_case "wire roundtrip" `Quick (fun () ->
        let c = clock_of_ints [ 11; 22; 33; 44 ] in
        let w = Lo_codec.Writer.create () in
        Bloom_clock.encode w c;
        let c' = Bloom_clock.decode (Lo_codec.Reader.of_string (Lo_codec.Writer.contents w)) in
        check_bool "equal" true (Bloom_clock.compare_clocks c c' = Bloom_clock.Equal);
        check_int "count" (Bloom_clock.count c) (Bloom_clock.count c'));
    Alcotest.test_case "cell_of_int deterministic and in range" `Quick (fun () ->
        for id = 1 to 100 do
          let c1 = Bloom_clock.cell_of_int ~cells:32 id in
          let c2 = Bloom_clock.cell_of_int ~cells:32 id in
          check_int "det" c1 c2;
          check_bool "range" true (c1 >= 0 && c1 < 32)
        done);
    qtest "adding preserves dominance"
      QCheck2.Gen.(pair (list_size (int_bound 20) (int_range 1 10000))
                     (list_size (int_bound 10) (int_range 1 10000)))
      (fun (base, extra) ->
        let a = clock_of_ints base in
        let b = clock_of_ints (base @ extra) in
        Bloom_clock.dominates b a);
    qtest "subset never dominates strict superset"
      QCheck2.Gen.(list_size (int_range 1 20) (int_range 1 10000))
      (fun base ->
        let a = clock_of_ints base in
        let b = clock_of_ints (base @ [ 424242 ]) in
        Bloom_clock.compare_clocks a b = Bloom_clock.Less);
  ]

let () =
  Alcotest.run "lo_bloom" [ ("bloom-clock", clock_tests) ]
