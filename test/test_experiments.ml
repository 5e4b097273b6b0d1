(* Shape tests for the experiment harness: tiny-scale versions of each
   paper figure, asserting the qualitative claims (who wins, roughly by
   how much) rather than absolute numbers. *)

open Lo_sim

let check_bool = Alcotest.(check bool)

let tiny =
  { Experiments.nodes = 30; reps = 1; rate = 8.; duration = 8.; seed = 2025 }

let metrics_tests =
  [
    Alcotest.test_case "stats mean/stddev/percentile" `Quick (fun () ->
        let s = Metrics.Stats.create () in
        List.iter (Metrics.Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
        Alcotest.(check (float 1e-9)) "mean" 3.0 (Metrics.Stats.mean s);
        Alcotest.(check (float 1e-9)) "min" 1.0 (Metrics.Stats.min s);
        Alcotest.(check (float 1e-9)) "max" 5.0 (Metrics.Stats.max s);
        Alcotest.(check (float 1e-9)) "median" 3.0 (Metrics.Stats.percentile s 0.5);
        check_bool "stddev" true (abs_float (Metrics.Stats.stddev s -. sqrt 2.) < 1e-9));
    Alcotest.test_case "stddev survives large offsets" `Quick (fun () ->
        (* Catastrophic-cancellation regression: with the naive
           sum_sq/n - mean^2 formula, an offset of 1e9 leaves zero
           significant bits in the variance. Welford's update keeps the
           exact same spread as the un-shifted data. *)
        let base = Metrics.Stats.create () in
        let shifted = Metrics.Stats.create () in
        List.iter
          (fun v ->
            Metrics.Stats.add base v;
            Metrics.Stats.add shifted (1e9 +. v))
          [ 1.; 2.; 3. ];
        let expected = sqrt (2. /. 3.) in
        Alcotest.(check (float 1e-9)) "base" expected (Metrics.Stats.stddev base);
        Alcotest.(check (float 1e-6)) "shifted" expected
          (Metrics.Stats.stddev shifted);
        Alcotest.(check (float 1e-3)) "shifted mean" (1e9 +. 2.)
          (Metrics.Stats.mean shifted));
    Alcotest.test_case "stats empty" `Quick (fun () ->
        let s = Metrics.Stats.create () in
        Alcotest.(check (float 1e-9)) "mean" 0. (Metrics.Stats.mean s);
        Alcotest.(check (float 1e-9)) "p50" 0. (Metrics.Stats.percentile s 0.5));
    Alcotest.test_case "histogram clamps and normalises" `Quick (fun () ->
        let h = Metrics.Histogram.create ~lo:0. ~hi:10. ~bins:5 in
        List.iter (Metrics.Histogram.add h) [ -1.; 0.5; 5.5; 25. ];
        let d = Metrics.Histogram.density h in
        Alcotest.(check int) "total" 4 (Metrics.Histogram.total h);
        check_bool "sums to 1" true
          (abs_float (Array.fold_left ( +. ) 0. d -. 1.0) < 1e-9);
        let counts = Metrics.Histogram.counts h in
        Alcotest.(check int) "first bin" 2 counts.(0);
        Alcotest.(check int) "last bin" 1 counts.(4));
  ]

let scenario_tests =
  [
    Alcotest.test_case "deployment is deterministic" `Slow (fun () ->
        let run () =
          let trace = Lo_obs.Trace.create ~capacity:1 () in
          let d = Scenario.build_lo ~trace ~n:15 ~seed:9 () in
          let specs = Scenario.standard_workload ~rate:5. ~duration:5. ~seed:9 ~n:15 in
          let txs = Scenario.inject_workload d specs in
          Lo_net.Network.run_until d.net 15.0;
          ( List.map (fun tx -> tx.Lo_core.Tx.id) txs,
            Lo_obs.Trace.tag_flows trace )
        in
        let a = run () and b = run () in
        check_bool "identical" true (a = b));
    Alcotest.test_case "workload arrives at the right rate" `Quick (fun () ->
        let specs = Scenario.standard_workload ~rate:50. ~duration:20. ~seed:1 ~n:10 in
        let n = List.length specs in
        check_bool "rate" true (n > 800 && n < 1200));
  ]

let fig_tests =
  [
    Alcotest.test_case "fig7: latency around a second, no tail blowup" `Slow
      (fun () ->
        let r = Experiments.fig7 ~scale:tiny () in
        check_bool "samples" true (r.Experiments.samples > 500);
        check_bool "mean plausible" true
          (r.Experiments.mean_latency > 0.2 && r.Experiments.mean_latency < 4.0);
        check_bool "p95 bounded" true (r.Experiments.p95 < 8.0);
        (* the paper's "interaction with 5 to 6 nodes" shape: a small
           single-digit number of reconciliation partners *)
        check_bool "interactions single digit" true
          (r.Experiments.mean_interactions > 0.5
          && r.Experiments.mean_interactions < 10.0));
    Alcotest.test_case "fig6: full suspicion, exposures spread" `Slow (fun () ->
        match Experiments.fig6 ~scale:tiny ~fractions:[ 0.2 ] () with
        | [ p ] ->
            check_bool "suspicion complete" true (p.Experiments.suspicion_complete > 0.95);
            check_bool "suspicion timely" true
              (p.Experiments.suspicion_time > 1.0 && p.Experiments.suspicion_time < 30.0);
            check_bool "exposures mostly complete" true
              (p.Experiments.exposure_complete > 0.5)
        | _ -> Alcotest.fail "expected one point");
    Alcotest.test_case "fig9: LO beats Flood and PeerReview; Narwhal is fast but costly"
      `Slow (fun () ->
        let rows = Experiments.fig9 ~scale:{ tiny with rate = 15.; duration = 12. } () in
        let find name =
          List.find (fun r -> r.Experiments.protocol = name) rows
        in
        let lo = find "LO" and flood = find "Flood" in
        let pr = find "PeerReview" and nw = find "Narwhal" in
        check_bool "flood costlier" true
          (flood.Experiments.overhead_bytes > 2 * lo.Experiments.overhead_bytes);
        check_bool "peerreview costliest of flood family" true
          (pr.Experiments.overhead_bytes > flood.Experiments.overhead_bytes);
        check_bool "narwhal costlier than LO" true
          (nw.Experiments.overhead_bytes > 2 * lo.Experiments.overhead_bytes);
        check_bool "narwhal faster" true
          (nw.Experiments.content_latency < lo.Experiments.content_latency));
    Alcotest.test_case "fig10: reconciliation work grows with load" `Slow
      (fun () ->
        match Experiments.fig10 ~scale:tiny ~rates:[ 2.; 30. ] () with
        | [ (_, low); (_, high) ] ->
            check_bool "monotone" true (high > low)
        | _ -> Alcotest.fail "expected two points");
    Alcotest.test_case "fig8: highest-fee starves low-fee transactions" `Slow
      (fun () ->
        let rows =
          Experiments.fig8_left
            ~scale:{ tiny with nodes = 25; rate = 10.; duration = 30. } ()
        in
        match rows with
        | [ fifo; hf ] ->
            check_bool "fifo serves low fee like anything else" true
              (fifo.Experiments.low_fee_mean
              < 1.6 *. Float.max 0.001 fifo.Experiments.high_fee_mean);
            check_bool "hf starves low fee" true
              (hf.Experiments.low_fee_mean
              > 1.5 *. Float.max 0.001 hf.Experiments.high_fee_mean)
        | _ -> Alcotest.fail "expected two rows");
    Alcotest.test_case "memcpu: partitioning beats monolithic decode" `Slow
      (fun () ->
        let r = Experiments.memcpu ~scale:tiny ~diffs:[ 200 ] () in
        (match r.Experiments.decode_costs with
        | [ c ] ->
            check_bool "faster" true (c.Experiments.partitioned_ms < c.Experiments.monolithic_ms)
        | _ -> Alcotest.fail "expected one cost");
        (* commitment size grows with workload *)
        let sizes = List.map snd r.Experiments.commitment_sizes in
        check_bool "monotone sizes" true (List.sort compare sizes = sizes);
        check_bool "storage measured" true (r.Experiments.storage_per_node > 0));
  ]

let ablation_tests =
  [
    Alcotest.test_case "light digests save several-fold bandwidth" `Slow
      (fun () ->
        let r =
          Experiments.ablation
            ~scale:{ tiny with nodes = 20; reps = 3; rate = 6.; duration = 6. }
            ()
        in
        check_bool "full costs more" true
          (r.Experiments.full_overhead > 2 * r.Experiments.light_overhead);
        check_bool "latency comparable" true
          (abs_float (r.Experiments.full_latency -. r.Experiments.light_latency)
          < 1.0);
        (* the share-period dial is monotone-ish: fastest period beats
           the slowest (of the finite points) *)
        let finite =
          List.filter (fun (_, v) -> Float.is_finite v)
            r.Experiments.share_period_exposure
        in
        match (finite, List.rev finite) with
        | (p_fast, t_fast) :: _, (p_slow, t_slow) :: _ when p_fast < p_slow ->
            check_bool "faster sharing exposes faster" true (t_fast <= t_slow)
        | _ -> () (* too few finite points at this tiny scale: fine *));
  ]

let report_tests =
  [
    Alcotest.test_case "formatters" `Quick (fun () ->
        Alcotest.(check string) "seconds" "1.500 s" (Report.seconds 1.5);
        Alcotest.(check string) "bytes" "512 B" (Report.bytes 512);
        Alcotest.(check string) "kb" "2.00 KB" (Report.bytes 2048);
        Alcotest.(check string) "mb" "3.00 MB" (Report.bytes (3 * 1024 * 1024)));
    Alcotest.test_case "printers do not raise" `Quick (fun () ->
        Report.table ~title:"t" ~header:[ "a"; "b" ] [ [ "1"; "2" ]; [ "3"; "4" ] ];
        Report.series ~title:"s" ~x_label:"x" ~y_label:"y" [ (1., 2.); (3., 4.) ];
        Report.histogram ~title:"h" ~edges:[| (0., 1.); (1., 2.) |]
          ~density:[| 0.5; 0.5 |]);
  ]

let replay_tests =
  [
    Alcotest.test_case "trace replay measures dissemination" `Slow (fun () ->
        let rng = Lo_net.Rng.create 7 in
        let trace =
          List.map
            (fun at ->
              {
                Lo_workload.Trace.at;
                fee = Lo_workload.Fee_model.(draw rng default);
                size = 250;
              })
            (Lo_workload.Arrival.poisson_times rng ~rate:5. ~duration:5.)
        in
        let r = Experiments.replay ~scale:tiny ~trace () in
        Alcotest.(check int) "txs" (List.length trace) r.Experiments.trace_txs;
        check_bool "deliveries" true
          (r.Experiments.delivered
          >= (List.length trace - 1) * (tiny.Experiments.nodes - 1));
        check_bool "latency sane" true
          (r.Experiments.replay_mean_latency > 0.1
          && r.Experiments.replay_mean_latency < 5.0));
    Alcotest.test_case "bundled sample trace parses" `Quick (fun () ->
        let path =
          List.find Sys.file_exists
            [ "../data/sample_trace.csv"; "data/sample_trace.csv";
              "../../data/sample_trace.csv" ]
        in
        let ic = open_in path in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        match Lo_workload.Trace.parse text with
        | Ok records -> check_bool "non-empty" true (List.length records > 100)
        | Error e -> Alcotest.fail e);
  ]

let () =
  Alcotest.run "lo_experiments"
    [
      ("metrics", metrics_tests);
      ("scenario", scenario_tests);
      ("figures", fig_tests);
      ("report", report_tests);
      ("replay", replay_tests);
      ("ablation", ablation_tests);
    ]
