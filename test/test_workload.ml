(* Tests for lo_workload: fee model statistics, Poisson arrivals, and
   the transaction spec generator. *)

open Lo_workload
module Rng = Lo_net.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fee_tests =
  [
    Alcotest.test_case "fees respect minimum" `Quick (fun () ->
        let rng = Rng.create 1 in
        for _ = 1 to 1000 do
          check_bool "min" true (Fee_model.draw rng Fee_model.default >= 1)
        done);
    Alcotest.test_case "median near exp(mu)" `Quick (fun () ->
        let rng = Rng.create 2 in
        let fees = List.init 20001 (fun _ -> Fee_model.draw rng Fee_model.default) in
        let sorted = List.sort compare fees in
        let median = List.nth sorted 10000 in
        let expected = exp Fee_model.default.Fee_model.mu in
        check_bool "median" true
          (float_of_int median > expected *. 0.8
          && float_of_int median < expected *. 1.2));
    Alcotest.test_case "heavy tail exists" `Quick (fun () ->
        let rng = Rng.create 3 in
        let fees = List.init 20000 (fun _ -> Fee_model.draw rng Fee_model.default) in
        let max_fee = List.fold_left max 0 fees in
        let sorted = List.sort compare fees in
        let median = List.nth sorted 10000 in
        check_bool "tail" true (max_fee > 10 * median));
    Alcotest.test_case "quantile monotone" `Quick (fun () ->
        let m = Fee_model.default in
        let q25 = Fee_model.quantile m 0.25 in
        let q50 = Fee_model.quantile m 0.5 in
        let q75 = Fee_model.quantile m 0.75 in
        check_bool "monotone" true (q25 <= q50 && q50 <= q75));
    Alcotest.test_case "quantile matches empirical" `Quick (fun () ->
        let rng = Rng.create 4 in
        let m = Fee_model.default in
        let fees = List.init 20001 (fun _ -> Fee_model.draw rng m) in
        let sorted = Array.of_list (List.sort compare fees) in
        let q75_emp = sorted.(15000) in
        let q75 = Fee_model.quantile m 0.75 in
        check_bool "close" true
          (float_of_int q75 > float_of_int q75_emp *. 0.8
          && float_of_int q75 < float_of_int q75_emp *. 1.2));
    Alcotest.test_case "quantile domain" `Quick (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Fee_model.quantile: q in (0,1)") (fun () ->
            ignore (Fee_model.quantile Fee_model.default 0.)));
  ]

let arrival_tests =
  [
    Alcotest.test_case "poisson count near rate*duration" `Quick (fun () ->
        let rng = Rng.create 5 in
        let times = Arrival.poisson_times rng ~rate:50. ~duration:100. in
        let n = List.length times in
        check_bool "count" true (n > 4500 && n < 5500));
    Alcotest.test_case "poisson increasing and in range" `Quick (fun () ->
        let rng = Rng.create 6 in
        let times = Arrival.poisson_times rng ~rate:10. ~duration:10. in
        let rec increasing = function
          | a :: (b :: _ as rest) -> a < b && increasing rest
          | _ -> true
        in
        check_bool "increasing" true (increasing times);
        List.iter
          (fun t -> check_bool "range" true (t >= 0. && t < 10.))
          times);
    Alcotest.test_case "zero rate yields nothing" `Quick (fun () ->
        let rng = Rng.create 7 in
        check_bool "empty" true (Arrival.poisson_times rng ~rate:0. ~duration:10. = []));
  ]

let txgen_tests =
  [
    Alcotest.test_case "specs ordered by time" `Quick (fun () ->
        let rng = Rng.create 8 in
        let specs = Tx_gen.generate rng Tx_gen.default_config ~num_nodes:10 in
        let rec ordered = function
          | a :: (b :: _ as rest) ->
              a.Tx_gen.created_at <= b.Tx_gen.created_at && ordered rest
          | _ -> true
        in
        check_bool "ordered" true (ordered specs));
    Alcotest.test_case "origins in range" `Quick (fun () ->
        let rng = Rng.create 9 in
        let specs = Tx_gen.generate rng Tx_gen.default_config ~num_nodes:7 in
        List.iter
          (fun s -> check_bool "origin" true (s.Tx_gen.origin >= 0 && s.Tx_gen.origin < 7))
          specs);
    Alcotest.test_case "default size is 250 bytes" `Quick (fun () ->
        let rng = Rng.create 10 in
        let specs = Tx_gen.generate rng Tx_gen.default_config ~num_nodes:5 in
        List.iter
          (fun s ->
            check_int "size" 250 s.Tx_gen.size;
            check_int "payload" 250 (String.length (Tx_gen.payload s)))
          specs);
    Alcotest.test_case "payload deterministic per nonce" `Quick (fun () ->
        let rng = Rng.create 11 in
        let specs = Tx_gen.generate rng Tx_gen.default_config ~num_nodes:5 in
        match specs with
        | s :: _ ->
            Alcotest.(check string) "same" (Tx_gen.payload s) (Tx_gen.payload s)
        | [] -> Alcotest.fail "no specs");
    Alcotest.test_case "nonces unique" `Quick (fun () ->
        let rng = Rng.create 12 in
        let specs = Tx_gen.generate rng Tx_gen.default_config ~num_nodes:5 in
        let nonces = List.map (fun s -> s.Tx_gen.nonce) specs in
        check_int "unique" (List.length nonces)
          (List.length (List.sort_uniq compare nonces)));
  ]

let trace_tests =
  [
    Alcotest.test_case "comments and blanks skipped" `Quick (fun () ->
        match Trace.parse "# header

1.0,5,250
2.0,7,250
" with
        | Ok [ a; b ] ->
            check_int "fee a" 5 a.Trace.fee;
            check_bool "time b" true (b.Trace.at = 2.0)
        | Ok _ -> Alcotest.fail "wrong count"
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "malformed line rejected with location" `Quick (fun () ->
        match Trace.parse "1.0,5,250
not,a,line
" with
        | Error msg -> check_bool "names line 2" true
            (String.length msg >= 6 && String.sub msg 0 6 = "line 2")
        | Ok _ -> Alcotest.fail "accepted junk");
    Alcotest.test_case "decreasing timestamps rejected" `Quick (fun () ->
        match Trace.parse "2.0,5,250
1.0,5,250
" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted time travel");
    Alcotest.test_case "to_specs preserves trace fields" `Quick (fun () ->
        let rng = Rng.create 14 in
        let trace =
          List.map
            (fun at ->
              { Trace.at; fee = Fee_model.(draw rng default); size = 250 })
            (Arrival.poisson_times rng ~rate:10. ~duration:3.)
        in
        let specs = Trace.to_specs (Rng.create 15) trace ~num_nodes:7 in
        check_int "count" (List.length trace) (List.length specs);
        List.iter2
          (fun (r : Trace.record) (s : Tx_gen.spec) ->
            check_bool "time" true (r.Trace.at = s.Tx_gen.created_at);
            check_int "fee" r.Trace.fee s.Tx_gen.fee;
            check_bool "origin" true (s.Tx_gen.origin >= 0 && s.Tx_gen.origin < 7))
          trace specs);
    Alcotest.test_case "stats" `Quick (fun () ->
        let trace =
          [ { Trace.at = 1.0; fee = 5; size = 250 };
            { Trace.at = 4.0; fee = 50; size = 250 } ]
        in
        match Trace.stats trace with
        | Some (n, dur, lo, hi) ->
            check_int "n" 2 n;
            check_bool "dur" true (dur = 3.0);
            check_int "lo" 5 lo;
            check_int "hi" 50 hi
        | None -> Alcotest.fail "no stats");
    Alcotest.test_case "empty stats" `Quick (fun () ->
        check_bool "none" true (Trace.stats [] = None));
  ]

let () =
  Alcotest.run "lo_workload"
    [ ("fee-model", fee_tests); ("arrival", arrival_tests);
      ("tx-gen", txgen_tests); ("trace", trace_tests) ]
