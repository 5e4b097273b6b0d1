(* Tests for lo_obs: trace ring/counter semantics, JSONL round-trips,
   the audit's invariant state machines on synthetic streams, and
   end-to-end properties on real simulator runs (byte-identical traces
   across same-seed runs; a misbehaving node makes the audit fail and
   names it). *)

open Lo_obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let e at ev = { Trace.at; ev }

(* ---------------- Trace ---------------- *)

let send ?(src = 0) ?(dst = 1) ?(tag = "a") ?(bytes = 10) () =
  Event.Send { src; dst; tag; bytes }

let deliver ?(src = 0) ?(dst = 1) ?(tag = "a") ?(bytes = 10) () =
  Event.Deliver { src; dst; tag; bytes }

let drop ?(src = 0) ?(dst = 1) ?(tag = "a") ?(bytes = 10) reason =
  Event.Drop { src; dst; tag; bytes; reason }

let trace_tests =
  [
    Alcotest.test_case "kind counters" `Quick (fun () ->
        let t = Trace.create () in
        Trace.emit t ~at:0.5 (send ());
        Trace.emit t ~at:0.6 (deliver ());
        Trace.emit t ~at:0.7 (send ~tag:"b" ());
        check_int "send" 2 (Trace.count t "send");
        check_int "deliver" 1 (Trace.count t "deliver");
        check_int "none" 0 (Trace.count t "crash");
        check_bool "kind_counts" true
          (Trace.kind_counts t = [ ("deliver", 1); ("send", 2) ]);
        check_bool "last_at" true (Trace.last_at t = 0.7));
    Alcotest.test_case "ring evicts oldest, aggregates survive" `Quick
      (fun () ->
        let t = Trace.create ~capacity:4 () in
        for i = 0 to 9 do
          Trace.emit t ~at:(float_of_int i) (send ~bytes:i ())
        done;
        check_int "length" 4 (Trace.length t);
        check_int "evicted" 6 (Trace.evicted t);
        check_int "total" 10 (Trace.total t);
        check_int "counter covers evicted" 10 (Trace.count t "send");
        (* survivors are the newest four, oldest first *)
        check_bool "survivors" true
          (List.map (fun en -> en.Trace.at) (Trace.events t)
          = [ 6.; 7.; 8.; 9. ]));
    Alcotest.test_case "invalid capacity rejected" `Quick (fun () ->
        match Trace.create ~capacity:0 () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "accepted capacity 0");
    Alcotest.test_case "tag flows split by outcome" `Quick (fun () ->
        let t = Trace.create () in
        (* Per-node traffic, folded by an observer: node -> (messages
           out, bytes out, messages in, bytes in). *)
        let io = Hashtbl.create 2 in
        let charge node (m, b, m', b') =
          let om, ob, im, ib =
            Option.value ~default:(0, 0, 0, 0) (Hashtbl.find_opt io node)
          in
          Hashtbl.replace io node (om + m, ob + b, im + m', ib + b')
        in
        Trace.observe t (fun { Trace.ev; _ } ->
            match ev with
            | Event.Send { src; bytes; _ } -> charge src (1, bytes, 0, 0)
            | Event.Deliver { dst; bytes; _ } -> charge dst (0, 0, 1, bytes)
            | _ -> ());
        Trace.emit t ~at:0.1 (send ~bytes:10 ());
        Trace.emit t ~at:0.2 (deliver ~bytes:10 ());
        Trace.emit t ~at:0.3 (send ~bytes:5 ());
        Trace.emit t ~at:0.4 (drop ~bytes:5 Event.Loss);
        Trace.emit t ~at:0.5 (drop ~bytes:7 Event.Blocked);
        (match Trace.tag_flows t with
        | [ ("a", f) ] ->
            check_int "sent msgs" 2 f.Trace.sent_msgs;
            check_int "sent bytes" 15 f.Trace.sent_bytes;
            check_int "delivered" 1 f.Trace.delivered_msgs;
            check_int "dropped bytes" 5 f.Trace.dropped_bytes;
            check_int "blocked msgs" 1 f.Trace.blocked_msgs;
            check_int "blocked bytes" 7 f.Trace.blocked_bytes
        | _ -> Alcotest.fail "expected one tag");
        match List.sort compare (List.of_seq (Hashtbl.to_seq io)) with
        | [ (0, (out_msgs, out_bytes, _, _)); (1, (_, _, in_msgs, in_bytes)) ]
          ->
            check_int "out msgs" 2 out_msgs;
            check_int "out bytes" 15 out_bytes;
            check_int "in msgs" 1 in_msgs;
            check_int "in bytes" 10 in_bytes
        | _ -> Alcotest.fail "expected two nodes");
    Alcotest.test_case "observers see every event, in order" `Quick
      (fun () ->
        let t = Trace.create ~capacity:1 () in
        let seen = ref [] in
        Trace.observe t (fun en -> seen := ("a", en.Trace.at) :: !seen);
        Trace.emit t ~at:1.0 (send ());
        Trace.observe t (fun en -> seen := ("b", en.Trace.at) :: !seen);
        Trace.emit t ~at:2.0 (deliver ());
        Trace.emit t ~at:3.0 (send ());
        check_bool "attach order, from attach on" true
          (List.rev !seen
          = [ ("a", 1.0); ("a", 2.0); ("b", 2.0); ("a", 3.0); ("b", 3.0) ]);
        check_int "ring keeps one" 1 (Trace.length t));
    Alcotest.test_case "phases accumulate outside the stream" `Quick
      (fun () ->
        let t = Trace.create () in
        Trace.note_phase t "build" 0.25;
        Trace.note_phase t "run" 1.0;
        Trace.note_phase t "build" 0.25;
        check_bool "order + accumulation" true
          (Trace.phases t = [ ("build", 0.5); ("run", 1.0) ]);
        check_int "not events" 0 (Trace.length t));
  ]

(* ---------------- JSONL ---------------- *)

(* One entry per constructor; times picked to survive %.6f exactly. *)
let all_constructors =
  [
    e 0.5 (send ~tag:"lo:txs" ());
    e 1.25 (deliver ~tag:"lo:digest" ~bytes:123 ());
    e 1.5 (drop Event.Blocked);
    e 1.75 (drop Event.Loss);
    e 2.0 (drop Event.Down);
    e 2.25 (drop Event.In_flight);
    e 2.3 (drop Event.Overflow);
    e 2.5 (Event.Span_begin { node = 3; key = "recon:7" });
    e 2.75 (Event.Span_end { node = 3; key = "recon:7"; ok = false });
    e 3.0 (Event.Commit_append { node = 2; seq = 4; count = 9; ids = [ 1; 2 ] });
    e 3.0 (Event.Commit_append { node = 2; seq = 5; count = 9; ids = [] });
    e 3.25 (Event.Suspect { node = 1; peer = 0 });
    e 3.5 (Event.Clear { node = 1; peer = 0 });
    e 3.75 (Event.Expose { node = 1; peer = 0 });
    e 4.0 (Event.Violation { node = 1; peer = 0; kind = "injection" });
    e 4.25
      (Event.Block_accept
         {
           node = 5;
           creator = 0;
           height = 2;
           bundles = [ (1, [ 10; 20 ]); (2, []) ];
           omitted = [ 30 ];
           appendix = 3;
         });
    e 4.5 (Event.Crash { node = 6 });
    e 4.75 (Event.Restart { node = 6 });
    e 4.8 (Event.Conn_down { node = 2; peer = 6; reason = "reset" });
    e 4.9 (Event.Conn_up { node = 2; peer = 6; attempts = 3 });
    e 5.0 (Event.Unknown_tag { node = 2; src = 6; tag = "zz:ping" });
    e 5.25 (Event.Malformed { node = 2; src = 6; tag = "lo:commit-req" });
    e 5.5 (Event.Submit { node = 3; id = 0x7fffffff });
  ]

let jsonl_tests =
  [
    Alcotest.test_case "every constructor round-trips" `Quick (fun () ->
        List.iter
          (fun entry ->
            match Jsonl.parse_line (Jsonl.line entry) with
            | Ok back ->
                check_bool (Jsonl.line entry) true (back = entry)
            | Error msg -> Alcotest.fail msg)
          all_constructors);
    Alcotest.test_case "document round-trips through a trace" `Quick
      (fun () ->
        let t = Trace.create () in
        List.iter (fun en -> Trace.emit t ~at:en.Trace.at en.Trace.ev)
          all_constructors;
        match Jsonl.parse (Jsonl.to_string t) with
        | Ok back -> check_bool "equal" true (back = all_constructors)
        | Error msg -> Alcotest.fail msg);
    Alcotest.test_case "garbage rejected with line number" `Quick (fun () ->
        (match Jsonl.parse_line "not json at all" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted garbage");
        let doc = Jsonl.line (List.hd all_constructors) ^ "\nnonsense\n" in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        match Jsonl.parse doc with
        | Error msg -> check_bool "names line 2" true (contains msg "2")
        | Ok _ -> Alcotest.fail "accepted garbage document");
    Alcotest.test_case "unknown event kind rejected" `Quick (fun () ->
        match Jsonl.parse_line {|{"t":1.000000,"ev":"warp","node":1}|} with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted unknown kind");
    Alcotest.test_case "blank lines skipped" `Quick (fun () ->
        let doc = "\n" ^ Jsonl.line (List.hd all_constructors) ^ "\n\n" in
        match Jsonl.parse doc with
        | Ok [ one ] -> check_bool "entry" true (one = List.hd all_constructors)
        | Ok _ -> Alcotest.fail "wrong count"
        | Error msg -> Alcotest.fail msg);
  ]

(* ---------------- Audit on synthetic streams ---------------- *)

let violations_of ?grace ?horizon entries =
  (Audit.check ?grace ?horizon entries).Audit.violations

let invariants vs = List.map (fun v -> v.Audit.invariant) vs

let audit_tests =
  [
    Alcotest.test_case "clean commit stream passes" `Quick (fun () ->
        let entries =
          [
            e 1.0 (Event.Commit_append { node = 0; seq = 1; count = 2; ids = [ 10; 20 ] });
            e 2.0 (Event.Commit_append { node = 0; seq = 2; count = 3; ids = [ 30 ] });
          ]
        in
        check_bool "ok" true (Audit.ok (Audit.check entries)));
    Alcotest.test_case "commit seq skip flagged" `Quick (fun () ->
        let entries =
          [
            e 1.0 (Event.Commit_append { node = 0; seq = 1; count = 1; ids = [ 10 ] });
            e 2.0 (Event.Commit_append { node = 0; seq = 3; count = 2; ids = [ 20 ] });
          ]
        in
        check_bool "flagged" true
          (List.mem "commit-monotonic" (invariants (violations_of entries))));
    Alcotest.test_case "commit counter mismatch flagged" `Quick (fun () ->
        let entries =
          [
            e 1.0 (Event.Commit_append { node = 0; seq = 1; count = 2; ids = [ 10; 20 ] });
            e 2.0 (Event.Commit_append { node = 0; seq = 2; count = 9; ids = [ 30 ] });
          ]
        in
        check_bool "flagged" true
          (List.mem "commit-monotonic" (invariants (violations_of entries))));
    Alcotest.test_case "duplicate committed id flagged" `Quick (fun () ->
        let entries =
          [
            e 1.0 (Event.Commit_append { node = 0; seq = 1; count = 2; ids = [ 10; 20 ] });
            e 2.0 (Event.Commit_append { node = 0; seq = 2; count = 3; ids = [ 10 ] });
          ]
        in
        check_bool "flagged" true
          (List.mem "commit-monotonic" (invariants (violations_of entries))));
    Alcotest.test_case "mid-trace adoption is not a violation" `Quick
      (fun () ->
        (* A bounded ring can lose a node's early appends; the first
           sighting at seq > 1 becomes the baseline. *)
        let entries =
          [
            e 5.0 (Event.Commit_append { node = 0; seq = 7; count = 30; ids = [ 10 ] });
            e 6.0 (Event.Commit_append { node = 0; seq = 8; count = 31; ids = [ 20 ] });
          ]
        in
        check_bool "ok" true (Audit.ok (Audit.check entries)));
    Alcotest.test_case "block injection flagged, names creator" `Quick
      (fun () ->
        let entries =
          [
            e 1.0 (Event.Commit_append { node = 0; seq = 1; count = 2; ids = [ 10; 20 ] });
            e 2.0
              (Event.Block_accept
                 { node = 1; creator = 0; height = 1;
                   bundles = [ (1, [ 10; 20; 99 ]) ]; omitted = [];
                   appendix = 0 });
          ]
        in
        match violations_of entries with
        | [ v ] ->
            check_bool "invariant" true (v.Audit.invariant = "canonical-order");
            check_int "guilty creator" 0 v.Audit.node
        | vs -> Alcotest.fail (Printf.sprintf "%d violations" (List.length vs)));
    Alcotest.test_case "silent censorship flagged, omission claim ok" `Quick
      (fun () ->
        let commit =
          e 1.0 (Event.Commit_append { node = 0; seq = 1; count = 2; ids = [ 10; 20 ] })
        in
        let block ~omitted =
          e 2.0
            (Event.Block_accept
               { node = 1; creator = 0; height = 1;
                 bundles = [ (1, [ 10 ]) ]; omitted; appendix = 0 })
        in
        check_bool "silent omission flagged" true
          (List.mem "canonical-order"
             (invariants (violations_of [ commit; block ~omitted:[] ])));
        check_bool "declared omission clean" true
          (Audit.ok (Audit.check [ commit; block ~omitted:[ 20 ] ])));
    Alcotest.test_case "exposed creator suppresses canonical-order" `Quick
      (fun () ->
        (* The protocol caught the creator — that is the success mode,
           even when the exposure lands after the block in the trace. *)
        let entries =
          [
            e 1.0 (Event.Commit_append { node = 0; seq = 1; count = 1; ids = [ 10 ] });
            e 2.0
              (Event.Block_accept
                 { node = 1; creator = 0; height = 1;
                   bundles = [ (1, [ 10; 99 ]) ]; omitted = []; appendix = 0 });
            e 3.0 (Event.Expose { node = 1; peer = 0 });
          ]
        in
        check_bool "suppressed" true (Audit.ok (Audit.check entries)));
    Alcotest.test_case "standing suspicion of an up node flagged" `Quick
      (fun () ->
        let entries = [ e 1.0 (Event.Suspect { node = 1; peer = 0 }) ] in
        match violations_of ~horizon:30.0 entries with
        | [ v ] ->
            check_bool "invariant" true
              (v.Audit.invariant = "suspicion-liveness");
            check_int "guilty suspect" 0 v.Audit.node
        | vs -> Alcotest.fail (Printf.sprintf "%d violations" (List.length vs)));
    Alcotest.test_case "cleared suspicion passes" `Quick (fun () ->
        let entries =
          [
            e 1.0 (Event.Suspect { node = 1; peer = 0 });
            e 4.0 (Event.Clear { node = 1; peer = 0 });
          ]
        in
        check_bool "ok" true
          (Audit.ok (Audit.check ~horizon:30.0 entries)));
    Alcotest.test_case "restart resets the suspicion grace clock" `Quick
      (fun () ->
        let entries =
          [
            e 1.0 (Event.Suspect { node = 1; peer = 0 });
            e 25.0 (Event.Crash { node = 0 });
            e 26.0 (Event.Restart { node = 0 });
          ]
        in
        let report = Audit.check ~horizon:30.0 entries in
        check_bool "excused" true (Audit.ok report);
        check_int "counted as standing" 1 report.Audit.standing_suspicions);
    Alcotest.test_case "suspicion of a down node excused" `Quick (fun () ->
        let entries =
          [
            e 1.0 (Event.Suspect { node = 1; peer = 0 });
            e 2.0 (Event.Crash { node = 0 });
          ]
        in
        check_bool "excused" true
          (Audit.ok (Audit.check ~horizon:40.0 entries)));
    Alcotest.test_case "unmatched send breaks conservation" `Quick (fun () ->
        let entries = [ e 1.0 (send ()) ] in
        check_bool "flagged" true
          (List.mem "bandwidth-conservation"
             (invariants (violations_of entries))));
    Alcotest.test_case "send + in-flight drop conserves" `Quick (fun () ->
        let entries =
          [ e 1.0 (send ()); e 20.0 (drop Event.In_flight) ]
        in
        check_bool "ok" true (Audit.ok (Audit.check entries)));
    Alcotest.test_case "blocked drops are excluded" `Quick (fun () ->
        let entries = [ e 1.0 (drop Event.Blocked) ] in
        check_bool "ok" true (Audit.ok (Audit.check entries)));
    Alcotest.test_case "malformed payloads are counted, not judged" `Quick
      (fun () ->
        let entries =
          [
            e 1.0 (send ~tag:"lo:txs" ());
            e 1.2 (deliver ~tag:"lo:txs" ());
            e 1.2 (Event.Malformed { node = 1; src = 0; tag = "lo:txs" });
          ]
        in
        check_bool "ok" true (Audit.ok (Audit.check entries)));
    Alcotest.test_case "byte mismatch caught even with matching counts"
      `Quick (fun () ->
        let entries =
          [ e 1.0 (send ~bytes:10 ()); e 1.2 (deliver ~bytes:9 ()) ]
        in
        check_bool "flagged" true
          (List.mem "bandwidth-conservation"
             (invariants (violations_of entries))));
    Alcotest.test_case "double span begin flagged" `Quick (fun () ->
        let entries =
          [
            e 1.0 (Event.Span_begin { node = 0; key = "recon:1" });
            e 2.0 (Event.Span_begin { node = 0; key = "recon:1" });
          ]
        in
        check_bool "flagged" true
          (List.mem "span-balance" (invariants (violations_of entries))));
    Alcotest.test_case "span end without begin flagged" `Quick (fun () ->
        let entries =
          [ e 1.0 (Event.Span_end { node = 0; key = "recon:1"; ok = true }) ]
        in
        check_bool "flagged" true
          (List.mem "span-balance" (invariants (violations_of entries))));
    Alcotest.test_case "unclosed span tolerated and counted" `Quick (fun () ->
        let entries =
          [ e 1.0 (Event.Span_begin { node = 0; key = "recon:1" }) ]
        in
        let report = Audit.check entries in
        check_bool "ok" true (Audit.ok report);
        check_int "unclosed" 1 report.Audit.unclosed_spans);
    Alcotest.test_case "attach after the first event rejected" `Quick
      (fun () ->
        let t = Trace.create () in
        Trace.emit t ~at:1.0 (send ());
        match Audit.attach t with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "attached mid-stream");
    Alcotest.test_case "attached audit outlives a one-entry ring" `Quick
      (fun () ->
        (* The stream the list check judges in "silent censorship
           flagged": same verdict when the events are folded as they
           are emitted and the ring keeps only the last one. *)
        let t = Trace.create ~capacity:1 () in
        let a = Audit.attach t in
        List.iter
          (fun { Trace.at; ev } -> Trace.emit t ~at ev)
          [
            e 1.0 (Event.Commit_append { node = 0; seq = 1; count = 2; ids = [ 10; 20 ] });
            e 1.5 (send ());
            e 2.0
              (Event.Block_accept
                 { node = 1; creator = 0; height = 1;
                   bundles = [ (1, [ 10 ]) ]; omitted = []; appendix = 0 });
          ];
        let report = Audit.finish ~horizon:5.0 a in
        check_bool "invariants" true
          (invariants report.Audit.violations
          = [ "canonical-order"; "bandwidth-conservation" ]);
        check_int "events" 3 report.Audit.events_checked;
        check_bool "finish is repeatable" true
          (Audit.finish ~horizon:5.0 a = report));
    Alcotest.test_case "evicted trace is unsound to audit" `Quick (fun () ->
        let t = Trace.create ~capacity:2 () in
        for i = 0 to 4 do
          Trace.emit t ~at:(float_of_int i) (send ~bytes:i ())
        done;
        check_bool "flagged" true
          (List.exists
             (fun v -> v.Audit.invariant = "truncated-trace")
             (Audit.check_trace t).Audit.violations));
  ]

(* ---------------- End to end ---------------- *)

open Lo_sim

let small_scale seed =
  { Runner.nodes = 16; reps = 1; rate = 5.; duration = 6.; seed }

let traced_run ?behaviors ?(drain = 20.) ~seed () =
  let trace = Trace.create () in
  let scale = small_scale seed in
  let run =
    Runner.run_lo ?behaviors ~scale ~seed ~drain ~trace
      ~blocks:(Lo_core.Policy.Lo_fifo, 4.0) ()
  in
  (trace, run)

(* The report of an audit attached before a run against the list
   audit of the same run's full ring. *)
let same_report name attached trace ~horizon =
  let listed = Audit.check_trace ~horizon trace in
  check_int (name ^ ": nothing evicted") 0 (Trace.evicted trace);
  check_bool (name ^ ": non-trivial") true (Trace.total trace > 1000);
  check_bool
    (Printf.sprintf "%s: %s = %s" name (Audit.summary attached)
       (Audit.summary listed))
    true (attached = listed)

let attached_vs_list_tests =
  let scale = { Runner.nodes = 10; reps = 1; rate = 3.; duration = 4.; seed = 1 } in
  List.map
    (fun (name, kind) ->
      Alcotest.test_case ("attached audit = list audit, " ^ name) `Slow
        (fun () ->
          let r = Experiments.trace_run ~scale ~kind () in
          same_report name r.Experiments.audit r.Experiments.trace
            ~horizon:r.Experiments.horizon))
    [ ("baseline", `Baseline); ("chaos", `Chaos); ("adversary", `Adversary) ]
  @ [
      Alcotest.test_case "attached audit = list audit, chaos cell" `Slow
        (fun () ->
          let scale = { scale with Runner.nodes = 12; duration = 6. } in
          let trace = Trace.create () in
          let attached =
            Experiments.chaos_rep_audit ~trace ~scale ~churn_rate:0.3
              ~partition_duration:1.5 ~burst_loss:0.35 ~rep:0 ()
          in
          (* The chaos horizon: workload duration plus its 30 s drain. *)
          same_report "chaos cell" attached trace ~horizon:36.0);
    ]

let e2e_tests =
  attached_vs_list_tests
  @ [
    Alcotest.test_case "same seed, byte-identical trace; audit clean" `Slow
      (fun () ->
        let t1, r1 = traced_run ~seed:4242 () in
        let t2, _ = traced_run ~seed:4242 () in
        let doc1 = Jsonl.to_string t1 and doc2 = Jsonl.to_string t2 in
        check_bool "non-trivial" true (Trace.total t1 > 1000);
        check_bool "byte-identical" true (String.equal doc1 doc2);
        let report = Audit.check_trace ~horizon:r1.Runner.horizon t1 in
        check_bool (Audit.summary report) true (Audit.ok report);
        (* the exported document replays through the parser to the same
           verdict *)
        match Jsonl.parse doc1 with
        | Ok entries ->
            check_int "parses completely" (Trace.length t1)
              (List.length entries);
            check_bool "parsed audit clean" true
              (Audit.ok (Audit.check ~horizon:r1.Runner.horizon entries))
        | Error msg -> Alcotest.fail msg);
    Alcotest.test_case "tracing does not perturb the simulation" `Slow
      (fun () ->
        (* [Runner.run_lo] always traces, so the untraced world is built
           and driven by hand: a world with no sink at all against the
           same world with one. Neither side may read the trace, so the
           fingerprint is per-node protocol state, the messages the
           engine accepted for each node, and each node's content
           deliveries. *)
        let world ?trace () =
          let scale = small_scale 777 in
          let n = scale.Runner.nodes in
          let d = Scenario.build_lo ?trace ~n ~seed:777 () in
          let addressed = Array.make n 0 and content = Array.make n 0 in
          Lo_net.Network.set_delivery_filter d.Scenario.net
            (Some
               (fun ~src:_ ~dst ~tag:_ ->
                 addressed.(dst) <- addressed.(dst) + 1;
                 true));
          Array.iteri
            (fun i node ->
              (Lo_core.Node.hooks node).Lo_core.Node.on_tx_content <-
                (fun _ -> content.(i) <- content.(i) + 1))
            d.Scenario.nodes;
          let horizon = scale.Runner.duration +. 20. in
          ignore
            (Scenario.inject_workload d
               (Scenario.standard_workload ~rate:scale.Runner.rate
                  ~duration:scale.Runner.duration ~seed:777 ~n));
          Scenario.schedule_blocks d ~policy:Lo_core.Policy.Lo_fifo
            ~interval:4.0 ~until:horizon ();
          Lo_net.Network.run_until d.Scenario.net horizon;
          let per_node f = Array.map f d.Scenario.nodes in
          ( per_node (fun node ->
                Lo_core.Commitment.Log.counter (Lo_core.Node.commitment_log node)),
            per_node (fun node -> Lo_core.Mempool.size (Lo_core.Node.mempool node)),
            addressed,
            content )
        in
        let trace = Trace.create () in
        let c1, m1, a1, d1 = world () in
        let c2, m2, a2, d2 = world ~trace () in
        check_bool "traced" true (Trace.count trace "send" > 1000);
        check_bool "same commitment counters" true (c1 = c2);
        check_bool "same mempool sizes" true (m1 = m2);
        check_bool "same messages per node" true (a1 = a2);
        check_bool "same content deliveries" true (d1 = d2));
    Alcotest.test_case "silent censor fails the audit and is named" `Slow
      (fun () ->
        (* Node 0 never answers: suspicions of it can never resolve, so
           the suspicion-liveness rule must convict node 0 — and only
           node 0. Drain long enough for escalation + grace. *)
        let t, r =
          traced_run ~drain:40.
            ~behaviors:(fun i ->
              if i = 0 then Lo_core.Node.Silent_censor else Lo_core.Node.Honest)
            ~seed:4242 ()
        in
        let report = Audit.check_trace ~horizon:r.Runner.horizon t in
        check_bool "audit fails" true (not (Audit.ok report));
        check_bool "has violations" true (report.Audit.violations <> []);
        List.iter
          (fun v ->
            check_bool "all suspicion-liveness" true
              (v.Audit.invariant = "suspicion-liveness");
            check_int "guilty node" 0 v.Audit.node)
          report.Audit.violations);
  ]

let () =
  Alcotest.run "lo_obs"
    [
      ("trace", trace_tests);
      ("jsonl", jsonl_tests);
      ("audit", audit_tests);
      ("e2e", e2e_tests);
    ]
