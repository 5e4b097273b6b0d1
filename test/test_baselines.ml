(* Tests for the baseline mempool protocols: Flood dissemination,
   PeerReview's tamper-evident logs and audits, and the Narwhal DAG
   rounds. *)

open Lo_baselines
module Net = Lo_net.Network
module Signer = Lo_crypto.Signer
module Tx = Lo_core.Tx

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Charged bytes per tag, read from a trace attached to the network. *)
let traced net =
  let tr = Lo_obs.Trace.create () in
  Net.set_trace net (Some tr);
  fun () -> Lo_sim.Runner.sent_by_tag tr

let mk_flood_net ?(n = 20) ~seed () =
  let scheme = Signer.simulation () in
  let net = Net.create ~num_nodes:n ~seed () in
  let rng = Lo_net.Rng.create (seed + 1) in
  let topo = Lo_net.Topology.build rng ~n ~out_degree:6 ~max_in:125 in
  let config = Flood.default_config scheme in
  let floods =
    Array.init n (fun i ->
        let f = Flood.create config ~net ~index:i ~neighbors:(Lo_net.Topology.neighbors topo i) in
        Flood.start f;
        f)
  in
  (net, floods, scheme)

let mk_tx scheme ~fee payload =
  let client = Signer.make scheme ~seed:"flood-client" in
  Tx.create ~signer:client ~fee ~created_at:0.0 ~payload

let flood_tests =
  [
    Alcotest.test_case "disseminates to everyone" `Slow (fun () ->
        let net, floods, scheme = mk_flood_net ~seed:1 () in
        let tx = mk_tx scheme ~fee:5 "flood-me" in
        Flood.submit_tx floods.(0) tx;
        Net.run_until net 20.0;
        Array.iter
          (fun f -> check_bool "has tx" true (Flood.has_tx f tx.Tx.id))
          floods);
    Alcotest.test_case "content hook fires once per node" `Slow (fun () ->
        let net, floods, scheme = mk_flood_net ~seed:2 () in
        let events = ref 0 in
        Array.iter (fun f -> Flood.on_tx_content f (fun _ ~now:_ -> incr events)) floods;
        let tx = mk_tx scheme ~fee:5 "count-me" in
        Flood.submit_tx floods.(3) tx;
        Net.run_until net 20.0;
        check_int "once per node" 20 !events);
    Alcotest.test_case "invalid tx rejected" `Quick (fun () ->
        let _net, floods, scheme = mk_flood_net ~n:3 ~seed:3 () in
        let tx = mk_tx scheme ~fee:5 "ok" in
        let raw = Bytes.of_string (Tx.to_string tx) in
        Bytes.set raw 40 (Char.chr (Char.code (Bytes.get raw 40) lxor 1));
        Flood.submit_tx floods.(0) (Tx.of_string (Bytes.to_string raw));
        check_int "empty" 0 (Flood.mempool_size floods.(0)));
    Alcotest.test_case "mempool messages generate overhead traffic" `Slow
      (fun () ->
        let net, floods, scheme = mk_flood_net ~n:10 ~seed:4 () in
        let by_tag = traced net in
        Flood.submit_tx floods.(0) (mk_tx scheme ~fee:3 "traffic");
        Net.run_until net 10.0;
        let tags = by_tag () in
        check_bool "mempool tag" true (List.mem_assoc "flood:mempool" tags));
  ]

let mk_pr_net ?(n = 15) ~seed () =
  let scheme = Signer.simulation () in
  let net = Net.create ~num_nodes:n ~seed () in
  let rng = Lo_net.Rng.create (seed + 1) in
  let topo = Lo_net.Topology.build rng ~n ~out_degree:6 ~max_in:125 in
  let config = { (Peer_review.default_config scheme) with Peer_review.num_witnesses = 4 } in
  let wrng = Lo_net.Rng.create (seed + 2) in
  let audited = Array.make n [] in
  for node = 0 to n - 1 do
    let ws =
      Lo_net.Rng.sample_without_replacement wrng config.Peer_review.num_witnesses
        (List.filter (fun i -> i <> node) (List.init n Fun.id))
    in
    List.iter (fun w -> audited.(w) <- node :: audited.(w)) ws
  done;
  let prs =
    Array.init n (fun i ->
        let signer = Signer.make scheme ~seed:(Printf.sprintf "pr%d" i) in
        let p =
          Peer_review.create config ~net ~index:i
            ~neighbors:(Lo_net.Topology.neighbors topo i)
            ~witnesses:audited.(i) ~signer
        in
        Peer_review.start p;
        p)
  in
  (net, prs, scheme)

let peer_review_tests =
  [
    Alcotest.test_case "disseminates like flood" `Slow (fun () ->
        let net, prs, scheme = mk_pr_net ~seed:5 () in
        let tx = mk_tx scheme ~fee:5 "pr-tx" in
        Peer_review.submit_tx prs.(0) tx;
        Net.run_until net 20.0;
        Array.iter
          (fun p -> check_int "mempool" 1 (Peer_review.mempool_size p))
          prs);
    Alcotest.test_case "logs grow with traffic" `Slow (fun () ->
        let net, prs, scheme = mk_pr_net ~seed:6 () in
        Peer_review.submit_tx prs.(0) (mk_tx scheme ~fee:5 "log-me");
        Net.run_until net 10.0;
        let total = Array.fold_left (fun acc p -> acc + Peer_review.log_length p) 0 prs in
        check_bool "non-empty" true (total > 0));
    Alcotest.test_case "honest audits verify" `Slow (fun () ->
        let net, prs, scheme = mk_pr_net ~seed:7 () in
        Peer_review.submit_tx prs.(2) (mk_tx scheme ~fee:5 "audit-me");
        Net.run_until net 30.0;
        Array.iter (fun p -> check_bool "ok" true (Peer_review.audits_ok p)) prs);
    Alcotest.test_case "tampered log fails the audit" `Slow (fun () ->
        let net, prs, scheme = mk_pr_net ~n:8 ~seed:88 () in
        Peer_review.submit_tx prs.(0) (mk_tx scheme ~fee:5 "tamper-me");
        Net.run_until net 12.0;
        (* forge a pr:log reply with a broken hash chain and hand it to
           node 0 acting as witness for node 1 *)
        let w = Lo_codec.Writer.create () in
        Lo_codec.Writer.varint w 1 (* one entry *);
        Lo_codec.Writer.varint w 0 (* seq *);
        Lo_codec.Writer.u8 w 0 (* kind *);
        Lo_codec.Writer.varint w 3 (* peer *);
        Lo_codec.Writer.fixed w (String.make 32 'x') (* msg hash *);
        Lo_codec.Writer.fixed w (String.make 32 'y') (* bogus chain *);
        Net.send net ~src:1 ~dst:0 ~tag:"pr:log" (Lo_codec.Writer.contents w);
        Net.run_until net 13.0;
        check_bool "audit failed" false (Peer_review.audits_ok prs.(0)));
    Alcotest.test_case "accountability traffic present" `Slow (fun () ->
        let net, prs, scheme = mk_pr_net ~n:8 ~seed:8 () in
        let by_tag = traced net in
        Peer_review.submit_tx prs.(0) (mk_tx scheme ~fee:5 "traffic");
        Net.run_until net 15.0;
        let tags = by_tag () in
        check_bool "auth" true (List.mem_assoc "pr:auth" tags);
        check_bool "log" true (List.mem_assoc "pr:log" tags));
  ]

let mk_nw_net ?(n = 12) ~seed () =
  let scheme = Signer.simulation () in
  let net = Net.create ~num_nodes:n ~seed () in
  let config = Narwhal.default_config scheme in
  let nws =
    Array.init n (fun i ->
        let signer = Signer.make scheme ~seed:(Printf.sprintf "nw%d" i) in
        let nw = Narwhal.create config ~net ~index:i ~num_nodes:n ~signer in
        Narwhal.start nw;
        nw)
  in
  (net, nws, scheme)

let narwhal_tests =
  [
    Alcotest.test_case "transactions commit via headers" `Slow (fun () ->
        let net, nws, scheme = mk_nw_net ~seed:9 () in
        let committed = ref 0 in
        Array.iter
          (fun nw -> Narwhal.on_tx_committed nw (fun _ ~now:_ -> incr committed))
          nws;
        let tx = mk_tx scheme ~fee:5 "narwhal-tx" in
        Narwhal.submit_tx nws.(0) tx;
        Net.run_until net 10.0;
        (* every node should commit the tx via some header *)
        check_int "committed everywhere" 12 !committed);
    Alcotest.test_case "content reaches everyone quickly" `Slow (fun () ->
        let net, nws, scheme = mk_nw_net ~seed:10 () in
        let latencies = ref [] in
        let tx = mk_tx scheme ~fee:5 "fast" in
        Array.iter
          (fun nw ->
            Narwhal.on_tx_content nw (fun tx' ~now ->
                if String.equal tx'.Tx.id tx.Tx.id then latencies := now :: !latencies))
          nws;
        Net.schedule net ~delay:1.0 (fun _ -> Narwhal.submit_tx nws.(3) tx);
        Net.run_until net 10.0;
        check_int "all got it" 12 (List.length !latencies);
        List.iter
          (fun t -> check_bool "fast" true (t -. 1.0 < 2.0))
          !latencies);
    Alcotest.test_case "round traffic even without txs" `Slow (fun () ->
        let net, _nws, _scheme = mk_nw_net ~n:6 ~seed:11 () in
        let by_tag = traced net in
        Net.run_until net 5.0;
        let tags = by_tag () in
        check_bool "batches" true (List.mem_assoc "nw:batch" tags);
        check_bool "acks" true (List.mem_assoc "nw:ack" tags);
        check_bool "headers" true (List.mem_assoc "nw:header" tags));
    Alcotest.test_case "headers require quorum" `Slow (fun () ->
        let net, nws, _scheme = mk_nw_net ~n:6 ~seed:12 () in
        (* take down half the network: quorum of 2/3 unreachable, no headers *)
        for i = 3 to 5 do
          Net.set_down net i true
        done;
        Net.run_until net 5.0;
        check_int "no headers" 0 (Narwhal.headers_seen nws.(0)));
  ]

let () =
  Alcotest.run "lo_baselines"
    [
      ("flood", flood_tests);
      ("peer-review", peer_review_tests);
      ("narwhal", narwhal_tests);
    ]
