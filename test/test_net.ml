(* Tests for lo_net: PRNG, event queue, latency model, the discrete
   event network engine, topologies, the mux, and uniform peer
   sampling. *)

open Lo_net

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* The engine's byte ledger is its trace: attach one to read it. *)
let traced net =
  let tr = Lo_obs.Trace.create () in
  Network.set_trace net (Some tr);
  tr

let sent_by tr node =
  match List.assoc_opt node (Lo_obs.Trace.node_flows tr) with
  | Some io -> io.Lo_obs.Trace.out_bytes
  | None -> 0

let received_by tr node =
  match List.assoc_opt node (Lo_obs.Trace.node_flows tr) with
  | Some io -> io.Lo_obs.Trace.in_bytes
  | None -> 0

(* ---------------- Rng ---------------- *)

let rng_tests =
  [
    Alcotest.test_case "deterministic in seed" `Quick (fun () ->
        let a = Rng.create 1 and b = Rng.create 1 in
        for _ = 1 to 100 do
          check_int "same" (Rng.int a 1000) (Rng.int b 1000)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        let same = ref true in
        for _ = 1 to 20 do
          if Rng.int a 1000000 <> Rng.int b 1000000 then same := false
        done;
        check_bool "diverge" false !same);
    Alcotest.test_case "split independence" `Quick (fun () ->
        let parent = Rng.create 5 in
        let child = Rng.split parent in
        let v1 = Rng.int child 1000000 in
        (* advancing parent must not affect child's already-drawn value;
           recreate and check determinism of the split itself *)
        let parent2 = Rng.create 5 in
        let child2 = Rng.split parent2 in
        check_int "same" v1 (Rng.int child2 1000000));
    Alcotest.test_case "int bounds" `Quick (fun () ->
        let r = Rng.create 3 in
        for _ = 1 to 1000 do
          let v = Rng.int r 7 in
          check_bool "range" true (v >= 0 && v < 7)
        done);
    Alcotest.test_case "int roughly uniform" `Quick (fun () ->
        let r = Rng.create 4 in
        let counts = Array.make 5 0 in
        for _ = 1 to 5000 do
          let v = Rng.int r 5 in
          counts.(v) <- counts.(v) + 1
        done;
        Array.iter (fun c -> check_bool "20%" true (c > 800 && c < 1200)) counts);
    Alcotest.test_case "float in range" `Quick (fun () ->
        let r = Rng.create 6 in
        for _ = 1 to 1000 do
          let v = Rng.float r 2.5 in
          check_bool "range" true (v >= 0. && v < 2.5)
        done);
    Alcotest.test_case "shuffle permutes" `Quick (fun () ->
        let r = Rng.create 7 in
        let a = Array.init 100 Fun.id in
        Rng.shuffle r a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        check_bool "permutation" true (sorted = Array.init 100 Fun.id));
    Alcotest.test_case "sample without replacement distinct" `Quick (fun () ->
        let r = Rng.create 8 in
        let xs = List.init 20 Fun.id in
        let s = Rng.sample_without_replacement r 10 xs in
        check_int "size" 10 (List.length s);
        check_int "distinct" 10 (List.length (List.sort_uniq compare s)));
    Alcotest.test_case "sample larger than list" `Quick (fun () ->
        let r = Rng.create 9 in
        let s = Rng.sample_without_replacement r 10 [ 1; 2; 3 ] in
        check_int "all" 3 (List.length s));
    Alcotest.test_case "exponential positive, near mean" `Quick (fun () ->
        let r = Rng.create 10 in
        let sum = ref 0. in
        for _ = 1 to 10000 do
          let v = Rng.exponential r ~mean:2.0 in
          check_bool "positive" true (v >= 0.);
          sum := !sum +. v
        done;
        let mean = !sum /. 10000. in
        check_bool "near 2.0" true (mean > 1.8 && mean < 2.2));
    Alcotest.test_case "gaussian near mu" `Quick (fun () ->
        let r = Rng.create 11 in
        let sum = ref 0. in
        for _ = 1 to 10000 do
          sum := !sum +. Rng.gaussian r ~mu:5.0 ~sigma:1.0
        done;
        let mean = !sum /. 10000. in
        check_bool "near 5" true (mean > 4.9 && mean < 5.1));
    qtest "pick stays in array" QCheck2.Gen.(int_range 1 50) (fun n ->
        let r = Rng.create n in
        let a = Array.init n Fun.id in
        let v = Rng.pick r a in
        v >= 0 && v < n);
  ]

(* ---------------- Event queue ---------------- *)

(* Run [ops] — [(0, _)] pops, [(_, time)] adds the next index at
   [time] — then drain; the pops, in order. *)
let transcript ~add ~pop ops =
  let popped =
    List.filter_map
      (fun (op, time) ->
        if op = 0 then pop ()
        else begin
          add time;
          None
        end)
      ops
  in
  let rec drain acc =
    match pop () with Some e -> drain (e :: acc) | None -> List.rev acc
  in
  popped @ drain []

let queue_transcript ops =
  let q = Event_queue.create () in
  let next = ref 0 in
  transcript ops
    ~add:(fun time ->
      Event_queue.add q ~time !next;
      incr next)
    ~pop:(fun () -> Event_queue.pop q)

(* The model: a list sorted by (time, insertion index); pop the head. *)
let model_transcript ops =
  let live = ref [] and next = ref 0 in
  transcript ops
    ~add:(fun time ->
      live := List.merge compare !live [ (time, !next) ];
      incr next)
    ~pop:(fun () ->
      match !live with
      | e :: rest ->
          live := rest;
          Some e
      | [] -> None)

let event_queue_tests =
  [
    Alcotest.test_case "orders by time" `Quick (fun () ->
        let q = Event_queue.create () in
        Event_queue.add q ~time:3.0 "c";
        Event_queue.add q ~time:1.0 "a";
        Event_queue.add q ~time:2.0 "b";
        check_bool "a" true (Event_queue.pop q = Some (1.0, "a"));
        check_bool "b" true (Event_queue.pop q = Some (2.0, "b"));
        check_bool "c" true (Event_queue.pop q = Some (3.0, "c"));
        check_bool "empty" true (Event_queue.pop q = None));
    Alcotest.test_case "FIFO on equal times" `Quick (fun () ->
        let q = Event_queue.create () in
        for i = 0 to 9 do
          Event_queue.add q ~time:1.0 i
        done;
        for i = 0 to 9 do
          check_bool "order" true (Event_queue.pop q = Some (1.0, i))
        done);
    Alcotest.test_case "peek does not pop" `Quick (fun () ->
        let q = Event_queue.create () in
        Event_queue.add q ~time:5.0 ();
        check_bool "peek" true (Event_queue.peek_time q = Some 5.0);
        check_int "size" 1 (Event_queue.size q));
    qtest "pops in sorted order" ~count:100
      QCheck2.Gen.(list_size (int_bound 100) (float_bound_inclusive 1000.))
      (fun times ->
        let q = Event_queue.create () in
        List.iter (fun t -> Event_queue.add q ~time:t ()) times;
        let rec drain acc =
          match Event_queue.pop q with
          | Some (t, ()) -> drain (t :: acc)
          | None -> List.rev acc
        in
        let out = drain [] in
        out = List.sort compare times);
    (* Stability: equal timestamps pop in insertion order. The fault
       plan relies on this for deterministic replay — a heal scheduled
       at the same instant as a new fault must observe insertion
       order. Times are drawn from a tiny set to force collisions. *)
    qtest "stable on equal timestamps" ~count:200
      QCheck2.Gen.(list_size (int_bound 200) (int_bound 4))
      (fun time_codes ->
        let q = Event_queue.create () in
        List.iteri
          (fun i code -> Event_queue.add q ~time:(float_of_int code) (i, code))
          time_codes;
        let rec drain acc =
          match Event_queue.pop q with
          | Some (t, payload) -> drain ((t, payload) :: acc)
          | None -> List.rev acc
        in
        let out = drain [] in
        (* Sorted by time, and insertion index increases within runs of
           equal time. *)
        let rec ok = function
          | (t1, (i1, _)) :: ((t2, (i2, _)) :: _ as rest) ->
              (t1 < t2 || (t1 = t2 && i1 < i2)) && ok rest
          | _ -> true
        in
        List.length out = List.length time_codes && ok out);
    (* The calendar queue must realise the exact (time, seq) total
       order — the golden traces lean on it byte for byte. Interleave
       adds and pops and compare the transcript with a sorted-list
       model. *)
    qtest "calendar matches sorted-list model" ~count:200
      QCheck2.Gen.(
        list_size (int_bound 300)
          (pair (int_bound 4) (int_bound 9 >|= float_of_int)))
      (fun ops -> queue_transcript ops = model_transcript ops);
    (* Wide, sparse spans: few live entries spread over 1e6 s, so a
       year-long bucket scan comes up empty and falls back to the direct
       minimum, and the final drain shrinks the bucket array. *)
    qtest "calendar matches model on sparse wide spans" ~count:200
      QCheck2.Gen.(
        list_size (int_bound 300)
          (pair (int_bound 2) (float_bound_inclusive 1e6)))
      (fun ops -> queue_transcript ops = model_transcript ops);
  ]

(* ---------------- Latency ---------------- *)

let latency_tests =
  [
    Alcotest.test_case "32 cities" `Quick (fun () ->
        check_int "cities" 32 (Latency.num_cities Latency.default));
    Alcotest.test_case "symmetric" `Quick (fun () ->
        let l = Latency.default in
        for a = 0 to 31 do
          for b = 0 to 31 do
            check_float "sym" (Latency.one_way l a b) (Latency.one_way l b a)
          done
        done);
    Alcotest.test_case "positive and bounded" `Quick (fun () ->
        let l = Latency.default in
        for a = 0 to 31 do
          for b = 0 to 31 do
            let v = Latency.one_way l a b in
            check_bool "pos" true (v > 0.);
            check_bool "below 300ms" true (v < 0.3)
          done
        done);
    Alcotest.test_case "same city is fast" `Quick (fun () ->
        let l = Latency.default in
        check_bool "fast" true (Latency.one_way l 0 0 < 0.01));
    Alcotest.test_case "round robin assignment" `Quick (fun () ->
        let l = Latency.default in
        check_int "node 0" 0 (Latency.city_of_node l 0);
        check_int "node 32" 0 (Latency.city_of_node l 32);
        check_int "node 33" 1 (Latency.city_of_node l 33));
    Alcotest.test_case "uniform model" `Quick (fun () ->
        let l = Latency.uniform ~one_way:0.05 in
        check_float "flat" 0.05 (Latency.one_way l 0 0));
  ]

(* ---------------- Network engine ---------------- *)

let network_tests =
  [
    Alcotest.test_case "message delivery with latency" `Quick (fun () ->
        let net = Network.create ~num_nodes:2 ~seed:1 ~jitter:0. () in
        let got = ref None in
        Network.set_handler net 1 (fun net ~from ~tag  _payload ->
            ignore tag;
            got := Some (from, Network.now net));
        Network.send net ~src:0 ~dst:1 ~tag:"t" "hello";
        Network.run_until net 1.0;
        match !got with
        | Some (from, at) ->
            check_int "from" 0 from;
            check_bool "delayed" true (at > 0.)
        | None -> Alcotest.fail "not delivered");
    Alcotest.test_case "self-send immediate" `Quick (fun () ->
        let net = Network.create ~num_nodes:1 ~seed:1 () in
        let at = ref (-1.) in
        Network.set_handler net 0 (fun net ~from:_ ~tag:_  _payload ->
            at := Network.now net);
        Network.send net ~src:0 ~dst:0 ~tag:"t" "x";
        Network.run_until net 1.0;
        check_float "zero" 0.0 !at);
    Alcotest.test_case "byte accounting" `Quick (fun () ->
        let net = Network.create ~num_nodes:2 ~seed:1 () in
        let tr = traced net in
        Network.set_handler net 1 (fun _ ~from:_ ~tag:_  _payload -> ());
        Network.send net ~src:0 ~dst:1 ~tag:"a" "12345";
        Network.send net ~src:0 ~dst:1 ~tag:"b" "123";
        Network.run_until net 1.0;
        check_int "sent" 8 (sent_by tr 0);
        check_int "received" 8 (received_by tr 1);
        check_int "messages" 2 (Lo_obs.Trace.count tr "send");
        check_bool "tags" true
          (List.map
             (fun (tag, f) -> (tag, f.Lo_obs.Trace.sent_bytes))
             (Lo_obs.Trace.tag_flows tr)
          = [ ("a", 5); ("b", 3) ]));
    Alcotest.test_case "send_many = iterated send" `Quick (fun () ->
        (* The broadcast path encodes once and fans out; deliveries,
           timing and byte accounting must be indistinguishable from
           sending to each recipient in turn. *)
        let deliveries net =
          let log = ref [] in
          for dst = 1 to 3 do
            Network.set_handler net dst (fun net ~from ~tag payload ->
                log := (dst, from, tag, payload, Network.now net) :: !log)
          done;
          log
        in
        let a = Network.create ~num_nodes:4 ~seed:42 () in
        let tr_a = traced a in
        let log_a = deliveries a in
        Network.send_many a ~src:0 ~dsts:[ 1; 2; 3 ] ~tag:"t" "payload";
        Network.run_until a 5.0;
        let b = Network.create ~num_nodes:4 ~seed:42 () in
        let tr_b = traced b in
        let log_b = deliveries b in
        List.iter
          (fun dst -> Network.send b ~src:0 ~dst ~tag:"t" "payload")
          [ 1; 2; 3 ];
        Network.run_until b 5.0;
        check_int "delivered" 3 (List.length !log_a);
        check_bool "identical deliveries" true (!log_a = !log_b);
        check_int "bytes" (sent_by tr_b 0) (sent_by tr_a 0);
        check_int "messages"
          (Lo_obs.Trace.count tr_b "send")
          (Lo_obs.Trace.count tr_a "send");
        check_bool "same flows" true
          (Lo_obs.Trace.tag_flows tr_b = Lo_obs.Trace.tag_flows tr_a
          && Lo_obs.Trace.node_flows tr_b = Lo_obs.Trace.node_flows tr_a));
    Alcotest.test_case "down node loses messages" `Quick (fun () ->
        let net = Network.create ~num_nodes:2 ~seed:1 () in
        let got = ref 0 in
        Network.set_handler net 1 (fun _ ~from:_ ~tag:_  _payload -> incr got);
        Network.set_down net 1 true;
        Network.send net ~src:0 ~dst:1 ~tag:"t" "x";
        Network.run_until net 1.0;
        check_int "none" 0 !got;
        Network.set_down net 1 false;
        Network.send net ~src:0 ~dst:1 ~tag:"t" "x";
        Network.run_until net 2.0;
        check_int "one" 1 !got);
    Alcotest.test_case "delivery filter drops" `Quick (fun () ->
        let net = Network.create ~num_nodes:2 ~seed:1 () in
        let got = ref 0 in
        Network.set_handler net 1 (fun _ ~from:_ ~tag:_  _payload -> incr got);
        Network.set_delivery_filter net
          (Some (fun ~src:_ ~dst:_ ~tag -> tag <> "blocked"));
        Network.send net ~src:0 ~dst:1 ~tag:"blocked" "x";
        Network.send net ~src:0 ~dst:1 ~tag:"ok" "x";
        Network.run_until net 1.0;
        check_int "one" 1 !got);
    Alcotest.test_case "timers fire in order" `Quick (fun () ->
        let net = Network.create ~num_nodes:1 ~seed:1 () in
        let log = ref [] in
        Network.schedule net ~delay:2.0 (fun _ -> log := 2 :: !log);
        Network.schedule net ~delay:1.0 (fun _ -> log := 1 :: !log);
        Network.run_until net 3.0;
        check_bool "order" true (List.rev !log = [ 1; 2 ]));
    Alcotest.test_case "run_until stops at horizon" `Quick (fun () ->
        let net = Network.create ~num_nodes:1 ~seed:1 () in
        let fired = ref false in
        Network.schedule net ~delay:5.0 (fun _ -> fired := true);
        Network.run_until net 2.0;
        check_bool "not yet" false !fired;
        check_float "clock" 2.0 (Network.now net);
        Network.run_until net 6.0;
        check_bool "fired" true !fired);
    Alcotest.test_case "deterministic across runs" `Quick (fun () ->
        let run () =
          let net = Network.create ~num_nodes:3 ~seed:77 () in
          let log = ref [] in
          for i = 0 to 2 do
            Network.set_handler net i (fun net ~from ~tag:_  _payload ->
                log := (i, from, Network.now net) :: !log)
          done;
          Network.send net ~src:0 ~dst:1 ~tag:"x" "a";
          Network.send net ~src:1 ~dst:2 ~tag:"x" "b";
          Network.send net ~src:2 ~dst:0 ~tag:"x" "c";
          Network.run_until net 2.0;
          !log
        in
        check_bool "same" true (run () = run ()));
    Alcotest.test_case "reset accounting" `Quick (fun () ->
        (* Accounting restarts by attaching a fresh trace; the old one
           keeps what it saw. *)
        let net = Network.create ~num_nodes:2 ~seed:1 () in
        let old = traced net in
        Network.send net ~src:0 ~dst:1 ~tag:"t" "xyz";
        Network.run_until net 1.0;
        let fresh = traced net in
        check_int "zero" 0 (sent_by fresh 0);
        check_bool "no flows" true (Lo_obs.Trace.tag_flows fresh = []);
        check_int "kept" 3 (sent_by old 0));
  ]

(* ---------------- Fault injection ---------------- *)

let fault_tests =
  [
    Alcotest.test_case "extreme jitter never delivers at or before send"
      `Quick (fun () ->
        (* jitter 5.0 makes the raw perturbation base * [-5, 5): without
           the epsilon clamp most deliveries would be scheduled in the
           past. Nothing may be lost and every arrival must be strictly
           after the send instant. *)
        let net = Network.create ~num_nodes:2 ~seed:9 ~jitter:5.0 () in
        let arrivals = ref [] in
        Network.set_handler net 1 (fun net ~from:_ ~tag:_ _payload ->
            arrivals := Network.now net :: !arrivals);
        Network.run_until net 1.0;
        let sent_at = Network.now net in
        for _ = 1 to 200 do
          Network.send net ~src:0 ~dst:1 ~tag:"t" "x"
        done;
        Network.run_until net 10.0;
        check_int "all delivered" 200 (List.length !arrivals);
        List.iter
          (fun at -> check_bool "strictly after send" true (at > sent_at))
          !arrivals);
    Alcotest.test_case "down source cannot send" `Quick (fun () ->
        let net = Network.create ~num_nodes:2 ~seed:1 () in
        let tr = traced net in
        let got = ref 0 in
        Network.set_handler net 1 (fun _ ~from:_ ~tag:_ _payload -> incr got);
        Network.crash net 0;
        Network.send net ~src:0 ~dst:1 ~tag:"t" "x";
        Network.run_until net 1.0;
        check_int "nothing" 0 !got;
        check_int "not even counted" 0 (Lo_obs.Trace.count tr "send"));
    Alcotest.test_case "partition splits and heals" `Quick (fun () ->
        let net = Network.create ~num_nodes:4 ~seed:2 () in
        let got = Array.make 4 0 in
        for i = 0 to 3 do
          Network.set_handler net i (fun _ ~from:_ ~tag:_ _payload ->
              got.(i) <- got.(i) + 1)
        done;
        Network.set_partition net (Some [| 0; 0; 1; 1 |]);
        Network.send net ~src:0 ~dst:1 ~tag:"t" "x" (* same side *);
        Network.send net ~src:0 ~dst:2 ~tag:"t" "x" (* across the cut *);
        Network.run_until net 1.0;
        check_int "same side arrives" 1 got.(1);
        check_int "cut drops" 0 got.(2);
        Network.set_partition net None;
        Network.send net ~src:0 ~dst:2 ~tag:"t" "x";
        Network.run_until net 2.0;
        check_int "healed" 1 got.(2));
    Alcotest.test_case "link fault is asymmetric" `Quick (fun () ->
        let net = Network.create ~num_nodes:2 ~seed:3 () in
        let got = Array.make 2 0 in
        for i = 0 to 1 do
          Network.set_handler net i (fun _ ~from:_ ~tag:_ _payload ->
              got.(i) <- got.(i) + 1)
        done;
        Network.set_link_fault net ~src:0 ~dst:1 ~loss:1.0 ();
        Network.send net ~src:0 ~dst:1 ~tag:"t" "x";
        Network.send net ~src:1 ~dst:0 ~tag:"t" "x";
        Network.run_until net 1.0;
        check_int "degraded direction drops" 0 got.(1);
        check_int "reverse direction clean" 1 got.(0);
        Network.clear_link_fault net ~src:0 ~dst:1;
        Network.send net ~src:0 ~dst:1 ~tag:"t" "x";
        Network.run_until net 2.0;
        check_int "cleared" 1 got.(1));
    Alcotest.test_case "link extra delay is additive" `Quick (fun () ->
        let net = Network.create ~num_nodes:2 ~seed:4 ~jitter:0. () in
        let at = ref 0. in
        Network.set_handler net 1 (fun net ~from:_ ~tag:_ _payload ->
            at := Network.now net);
        Network.set_link_fault net ~src:0 ~dst:1 ~extra_delay:0.5 ();
        Network.send net ~src:0 ~dst:1 ~tag:"t" "x";
        Network.run_until net 2.0;
        check_bool "delayed past the overlay" true (!at >= 0.5));
    Alcotest.test_case "restart fires the handler exactly when down"
      `Quick (fun () ->
        let net = Network.create ~num_nodes:2 ~seed:5 () in
        let recovered = ref 0 in
        Network.set_restart_handler net 0 (fun _ -> incr recovered);
        Network.restart net 0 (* up: no-op *);
        check_int "no spurious recovery" 0 !recovered;
        Network.crash net 0;
        check_bool "down" true (Network.is_down net 0);
        Network.restart net 0;
        check_bool "up" false (Network.is_down net 0);
        check_int "recovery ran once" 1 !recovered);
    Alcotest.test_case "fault plan fires every kind deterministically"
      `Quick (fun () ->
        let run () =
          let net = Network.create ~num_nodes:8 ~seed:21 () in
          let deliveries = ref [] in
          for i = 0 to 7 do
            Network.set_handler net i (fun net ~from ~tag:_ _payload ->
                deliveries := (from, i, Network.now net) :: !deliveries)
          done;
          (* Chatter between all pairs every 100 ms. *)
          let rec chatter at =
            if at < 10. then begin
              Network.schedule_at net ~at (fun net ->
                  for s = 0 to 7 do
                    for d = 0 to 7 do
                      if s <> d then Network.send net ~src:s ~dst:d ~tag:"t" "x"
                    done
                  done);
              chatter (at +. 0.1)
            end
          in
          chatter 0.;
          let rng = Rng.create 99 in
          let plan =
            Fault_plan.merge
              [
                Fault_plan.churn ~rng ~n:8 ~rate:0.5 ~mean_down:1.0 ~until:8.;
                Fault_plan.partitions ~rng ~n:8 ~period:2. ~duration:1.
                  ~until:8.;
                Fault_plan.loss_bursts ~rng ~rate:0.4 ~period:3. ~duration:1.
                  ~until:8.;
                Fault_plan.latency_spikes ~rng ~n:8 ~k:2 ~extra:0.2 ~period:3.
                  ~duration:1. ~until:8.;
                Fault_plan.link_degrades ~rng ~n:8 ~loss:0.8 ~extra_delay:0.1
                  ~period:3. ~duration:1. ~until:8.;
              ]
          in
          let stats = Fault_plan.install net plan in
          Network.run_until net 12.0;
          (stats, !deliveries)
        in
        let stats, deliveries = run () in
        check_bool "churn fired" true (stats.Fault_plan.crashes > 0);
        check_int "every crash recovered" stats.Fault_plan.crashes
          stats.Fault_plan.restarts;
        check_bool "partition fired" true (stats.Fault_plan.partitions > 0);
        check_bool "burst fired" true (stats.Fault_plan.loss_bursts > 0);
        check_bool "spike fired" true (stats.Fault_plan.latency_spikes > 0);
        check_bool "link fault fired" true (stats.Fault_plan.link_degrades > 0);
        check_int "5 kinds" 5 (Fault_plan.kinds_injected stats);
        (* Same seed + same plan => byte-identical trace. *)
        let _, deliveries2 = run () in
        check_bool "deterministic" true (deliveries = deliveries2));
    Alcotest.test_case "loss burst window raises then restores the rate"
      `Quick (fun () ->
        let net = Network.create ~num_nodes:2 ~seed:6 ~loss_rate:0.05 () in
        let plan =
          [
            {
              Fault_plan.at = 1.0;
              fault = Fault_plan.Loss_burst { rate = 0.6; duration = 2.0 };
            };
          ]
        in
        ignore (Fault_plan.install net plan);
        Network.run_until net 0.5;
        check_float "base before" 0.05 (Network.loss_rate net);
        Network.run_until net 1.5;
        check_float "elevated during" 0.6 (Network.loss_rate net);
        Network.run_until net 4.0;
        check_float "restored after" 0.05 (Network.loss_rate net));
  ]

(* ---------------- Topology ---------------- *)

let topology_tests =
  [
    Alcotest.test_case "connected" `Quick (fun () ->
        let t = Topology.build (Rng.create 1) ~n:200 ~out_degree:8 ~max_in:125 in
        check_bool "connected" true
          (Topology.is_connected_subgraph t ~keep:(fun _ -> true)));
    Alcotest.test_case "degrees reasonable" `Quick (fun () ->
        let t = Topology.build (Rng.create 2) ~n:100 ~out_degree:8 ~max_in:125 in
        check_bool "avg >= 8" true (Topology.average_degree t >= 8.);
        for i = 0 to 99 do
          check_bool "min 2" true (Topology.degree t i >= 2)
        done);
    Alcotest.test_case "edges are symmetric" `Quick (fun () ->
        let t = Topology.build (Rng.create 3) ~n:50 ~out_degree:4 ~max_in:125 in
        for i = 0 to 49 do
          List.iter
            (fun j -> check_bool "sym" true (List.mem i (Topology.neighbors t j)))
            (Topology.neighbors t i)
        done);
    Alcotest.test_case "no self loops or duplicates" `Quick (fun () ->
        let t = Topology.build (Rng.create 4) ~n:60 ~out_degree:6 ~max_in:125 in
        for i = 0 to 59 do
          let ns = Topology.neighbors t i in
          check_bool "no self" false (List.mem i ns);
          check_int "no dup" (List.length ns) (List.length (List.sort_uniq compare ns))
        done);
    Alcotest.test_case "correct core stays connected" `Quick (fun () ->
        let malicious = Array.init 100 (fun i -> i mod 4 = 0) in
        let t =
          Topology.build_with_correct_core (Rng.create 5) ~malicious
            ~out_degree:8 ~max_in:125
        in
        check_bool "core connected" true
          (Topology.is_connected_subgraph t ~keep:(fun i -> not malicious.(i))));
    Alcotest.test_case "malicious nodes get edges too" `Quick (fun () ->
        let malicious = Array.init 50 (fun i -> i < 10) in
        let t =
          Topology.build_with_correct_core (Rng.create 6) ~malicious
            ~out_degree:8 ~max_in:125
        in
        for i = 0 to 9 do
          check_bool "has neighbors" true (Topology.degree t i > 0)
        done);
    Alcotest.test_case "malicious reach correct nodes" `Quick (fun () ->
        let malicious = Array.init 50 (fun i -> i < 10) in
        let t =
          Topology.build_with_correct_core (Rng.create 7) ~malicious
            ~out_degree:8 ~max_in:125
        in
        let reaches_correct = ref 0 in
        for i = 0 to 9 do
          if List.exists (fun j -> not malicious.(j)) (Topology.neighbors t i)
          then incr reaches_correct
        done;
        check_bool "most reach" true (!reaches_correct >= 8));
    Alcotest.test_case "inbound cap respected" `Quick (fun () ->
        let t = Topology.build (Rng.create 8) ~n:40 ~out_degree:8 ~max_in:10 in
        for i = 0 to 39 do
          (* degree = in + out; out <= 8+2(ring), in <= 10+2 *)
          check_bool "cap-ish" true (Topology.degree t i <= 22)
        done);
    (* Live clusters of n <= 9 run the simulator's overlay rule (8 out),
       which must still terminate and wire every pair. *)
    Alcotest.test_case "small overlays are complete" `Quick (fun () ->
        for n = 1 to 9 do
          for seed = 1 to 20 do
            let t = Topology.build (Rng.create seed) ~n ~out_degree:8 ~max_in:125 in
            for i = 0 to n - 1 do
              let expect = List.filter (( <> ) i) (List.init n Fun.id) in
              check_bool "complete, no self-loops" true
                (List.sort compare (Topology.neighbors t i) = expect)
            done
          done
        done);
  ]

(* ---------------- Mux ---------------- *)

let mux_tests =
  [
    Alcotest.test_case "routes by proto prefix" `Quick (fun () ->
        let net = Network.create ~num_nodes:2 ~seed:1 () in
        let mux = Mux.create net in
        let got_a = ref 0 and got_b = ref 0 in
        Mux.register mux 1 ~proto:"a" (fun _ ~from:_ ~tag:_  _payload -> incr got_a);
        Mux.register mux 1 ~proto:"b" (fun _ ~from:_ ~tag:_  _payload -> incr got_b);
        Network.send net ~src:0 ~dst:1 ~tag:"a:x" "1";
        Network.send net ~src:0 ~dst:1 ~tag:"b:y" "2";
        Network.send net ~src:0 ~dst:1 ~tag:"c:z" "3";
        Network.run_until net 1.0;
        check_int "a" 1 !got_a;
        check_int "b" 1 !got_b);
    Alcotest.test_case "proto_of_tag" `Quick (fun () ->
        Alcotest.(check string) "split" "lo" (Mux.proto_of_tag "lo:commit");
        Alcotest.(check string) "no colon" "plain" (Mux.proto_of_tag "plain"));
  ]

(* ---------------- Peer sampler ---------------- *)

let sampler_tests =
  [
    Alcotest.test_case "uniform_sample distinct and excludes" `Quick (fun () ->
        let rng = Rng.create 1 in
        let s = Peer_sampler.uniform_sample rng ~n:50 ~k:10 ~exclude:(fun i -> i < 25) in
        check_int "size" 10 (List.length s);
        check_int "distinct" 10 (List.length (List.sort_uniq compare s));
        List.iter (fun i -> check_bool "excluded" true (i >= 25)) s);
  ]

let () =
  Alcotest.run "lo_net"
    [
      ("rng", rng_tests);
      ("event-queue", event_queue_tests);
      ("latency", latency_tests);
      ("network", network_tests);
      ("faults", fault_tests);
      ("topology", topology_tests);
      ("mux", mux_tests);
      ("peer-sampler", sampler_tests);
    ]
