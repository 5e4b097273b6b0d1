(* Tests for the conformance harness itself: generator determinism,
   repro JSON round-trips, oracle verdicts on known-good and known-bad
   runs, mutation sensitivity, and shrinking to a minimal failing
   scenario whose replay fails identically. *)

open Lo_check

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A small, fast, fault-free baseline everything below perturbs. *)
let base : Scenario.t =
  {
    seed = 420;
    nodes = 6;
    rate = 3.;
    duration = 4.;
    drain = 28.;
    loss = 0.;
    block_interval = 3.;
    rotate_period = 0.;
    timeout = 0.6;
    retries = 2;
    backoff = 2.0;
    jitter = 0.2;
    reconcile_period = 1.0;
    digest_period = 2.0;
    adversaries = [];
    churn = 0.;
    partition = 0.;
    burst = 0.;
    spikes = false;
    degrades = false;
    mutation = "";
  }

let scenario_tests =
  [
    Alcotest.test_case "generation is deterministic" `Quick (fun () ->
        for index = 0 to 19 do
          check_bool "equal" true
            (Scenario.generate ~seed:7 ~index
            = Scenario.generate ~seed:7 ~index)
        done);
    Alcotest.test_case "distinct indices give distinct scenarios" `Quick
      (fun () ->
        let distinct = Hashtbl.create 32 in
        for index = 0 to 19 do
          Hashtbl.replace distinct
            (Scenario.to_json_string (Scenario.generate ~seed:7 ~index))
            ()
        done;
        check_bool "mostly distinct" true (Hashtbl.length distinct >= 19));
    qtest "json round-trip is exact"
      QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 200))
      (fun (seed, index) ->
        let s = Scenario.generate ~seed ~index in
        Scenario.of_json_string (Scenario.to_json_string s) = Ok s);
    Alcotest.test_case "round-trip covers mutation and adversaries" `Quick
      (fun () ->
        let s =
          {
            base with
            adversaries =
              [
                { Scenario.node = 1; kind = "silent-censor" };
                { Scenario.node = 4; kind = "block-reorderer" };
              ];
            mutation = "inject";
          }
        in
        check_bool "ok" true
          (Scenario.of_json_string (Scenario.to_json_string s) = Ok s));
    Alcotest.test_case "malformed json is an error" `Quick (fun () ->
        List.iter
          (fun bad ->
            match Scenario.of_json_string bad with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" bad)
          [
            "";
            "{";
            "{}";
            "{\"v\":2}";
            "not json at all";
            "{\"v\":1,\"seed\":\"oops\"}";
          ];
        (* A valid repro, corrupted one way at a time. *)
        let good =
          Scenario.to_json_string
            {
              base with
              adversaries = [ { Scenario.node = 1; kind = "equivocator" } ];
            }
        in
        let edit from into =
          let rec find i =
            if String.sub good i (String.length from) = from then i
            else find (i + 1)
          in
          let i = find 0 in
          String.sub good 0 i ^ into
          ^ String.sub good (i + String.length from)
              (String.length good - i - String.length from)
        in
        check_bool "base parses" true (Result.is_ok (Scenario.of_json_string good));
        List.iter
          (fun (what, bad) ->
            match Scenario.of_json_string bad with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%s accepted: %s" what bad)
          [
            ("unterminated string", edit "\"mutation\":\"\"" "\"mutation\":\"");
            ("missing key", edit ",\"churn\":" ",\"chum\":");
            ( "adversaries not an array",
              edit "[\"1:equivocator\"]" "\"1:equivocator\"" );
            ("trailing comma", edit "}" ",}");
          ]);
    Alcotest.test_case "whitespace in a repro is skipped" `Quick (fun () ->
        let s =
          {
            base with
            adversaries =
              [
                { Scenario.node = 1; kind = "equivocator" };
                { Scenario.node = 3; kind = "silent-censor" };
              ];
          }
        in
        (* Space out every separator; a colon inside a quoted
           adversary ("1:equivocator") is part of its value. *)
        let json = Scenario.to_json_string s in
        let b = Buffer.create 512 in
        String.iteri
          (fun i c ->
            Buffer.add_string b
              (match c with
              | ',' -> " ,\n  "
              | ':' when json.[i - 1] = '"' -> " : "
              | '[' -> "[ "
              | ']' -> " ]"
              | c -> String.make 1 c))
          json;
        let spaced = Buffer.contents b in
        check_bool "pretty-printed repro parses" true
          (Scenario.of_json_string ("\n" ^ spaced ^ "\n") = Ok s));
    Alcotest.test_case "shrink candidates are strictly simpler" `Quick
      (fun () ->
        let s =
          {
            base with
            churn = 0.1;
            partition = 1.5;
            spikes = true;
            adversaries = [ { Scenario.node = 2; kind = "equivocator" } ];
          }
        in
        let weight (c : Scenario.t) =
          c.nodes
          + List.length c.adversaries
          + (if c.churn > 0. then 1 else 0)
          + (if c.partition > 0. then 1 else 0)
          + (if c.burst > 0. then 1 else 0)
          + (if c.spikes then 1 else 0)
          + (if c.degrades then 1 else 0)
          + (if c.loss > 0. then 1 else 0)
          + (if c.rotate_period > 0. then 1 else 0)
          + (if c.block_interval > 0. then 1 else 0)
          + int_of_float (c.duration +. c.rate)
        in
        List.iter
          (fun c -> check_bool "simpler" true (weight c < weight s))
          (Scenario.shrink_candidates s));
    Alcotest.test_case "shrinking never drops the mutation" `Quick (fun () ->
        let s =
          Harness.with_mutation { base with churn = 0.1; spikes = true }
            "shuffle-skip"
        in
        List.iter
          (fun (c : Scenario.t) ->
            check_str "mutation kept" "shuffle-skip" c.mutation;
            check_bool "blocks kept" true (c.block_interval > 0.))
          (Scenario.shrink_candidates s));
  ]

let harness_tests =
  [
    Alcotest.test_case "clean scenario passes every oracle" `Quick (fun () ->
        let o = Harness.execute base in
        check_str "no failures" ""
          (Oracle.failures_to_string o.verdict.Oracle.failures);
        check_bool "events flowed" true (o.events > 100));
    Alcotest.test_case "execution is deterministic" `Quick (fun () ->
        let a = Harness.execute base and b = Harness.execute base in
        check_int "same events" a.events b.events;
        check_bool "same verdict" true
          (a.verdict.Oracle.failures = b.verdict.Oracle.failures
          && a.verdict.Oracle.detections = b.verdict.Oracle.detections));
    Alcotest.test_case "silent censor is detected, not failed" `Quick
      (fun () ->
        let s =
          {
            base with
            adversaries = [ { Scenario.node = 2; kind = "silent-censor" } ];
          }
        in
        let o = Harness.execute s in
        check_str "no failures" ""
          (Oracle.failures_to_string o.verdict.Oracle.failures);
        check_bool "detected" true
          (List.exists
             (fun d -> d.Oracle.adversary = 2)
             o.verdict.Oracle.detections));
    Alcotest.test_case "unknown mutation rejected" `Quick (fun () ->
        match Harness.with_mutation base "no-such-rule" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "accepted bogus mutation");
    Alcotest.test_case "mutant is hidden from ground truth" `Quick (fun () ->
        let s = Harness.with_mutation base "inject" in
        let o = Harness.execute s in
        check_bool "mutant assigned" true (o.mutant <> None);
        check_bool "caught red-handed" true (Harness.failed o);
        check_bool "fired observably" true (o.mutant_observable > 0));
    Alcotest.test_case "silent mutation caught via liveness" `Quick (fun () ->
        let o = Harness.execute (Harness.with_mutation base "silent") in
        check_bool "caught" true (Harness.failed o));
  ]

let shrink_tests =
  [
    Alcotest.test_case "passing scenario shrinks to itself" `Quick (fun () ->
        let minimal, _ = Harness.shrink ~budget:3 base in
        check_bool "unchanged" true (minimal = base));
    Alcotest.test_case "failure shrinks to minimal failing repro" `Slow
      (fun () ->
        (* Start from a deliberately noisy failing scenario: hidden
           mutant plus unrelated faults and an unrelated adversary. *)
        let noisy =
          Harness.with_mutation
            {
              base with
              nodes = 10;
              churn = 0.1;
              partition = 1.5;
              burst = 0.2;
              adversaries = [ { Scenario.node = 1; kind = "tx-censor" } ];
            }
            "inject"
        in
        check_bool "noisy fails" true (Harness.failed (Harness.execute noisy));
        let minimal, runs = Harness.shrink noisy in
        check_bool "spent runs" true (runs > 0);
        (* All the noise must be gone: the shrinker strips faults and
           the unrelated adversary before touching size. *)
        check_bool "faults stripped" true
          (minimal.Scenario.churn = 0.
          && minimal.Scenario.partition = 0.
          && minimal.Scenario.burst = 0.);
        check_int "adversaries stripped" 0
          (List.length minimal.Scenario.adversaries);
        check_str "mutation survives" "inject" minimal.Scenario.mutation;
        (* Replay of the minimal repro fails identically: same failure
           strings from a fresh execution, and the JSON round-trip does
           not disturb that. *)
        let v1 = Harness.execute minimal and v2 = Harness.execute minimal in
        check_bool "still fails" true (Harness.failed v1);
        check_str "identical failures"
          (Oracle.failures_to_string v1.verdict.Oracle.failures)
          (Oracle.failures_to_string v2.verdict.Oracle.failures);
        let reparsed =
          match Scenario.of_json_string (Scenario.to_json_string minimal) with
          | Ok s -> s
          | Error e -> Alcotest.failf "repro does not parse: %s" e
        in
        let v3 = Harness.execute reparsed in
        check_str "replay fails identically"
          (Oracle.failures_to_string v1.verdict.Oracle.failures)
          (Oracle.failures_to_string v3.verdict.Oracle.failures));
    Alcotest.test_case "repro file io round-trips" `Quick (fun () ->
        let path = Filename.temp_file "lo-check" ".json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let s = Harness.with_mutation base "omit" in
            Harness.write_repro ~path s;
            match Harness.read_repro ~path with
            | Ok s' -> check_bool "equal" true (s = s')
            | Error e -> Alcotest.failf "read failed: %s" e));
  ]

let () =
  Alcotest.run "lo_check"
    [
      ("scenario", scenario_tests);
      ("harness", harness_tests);
      ("shrink", shrink_tests);
    ]
