(* Tests for the enforcement layer (paper Sec. 5.4) and the client-side
   Stage-I submission path with acknowledgements. *)

open Lo_core
module Net = Lo_net.Network
module Signer = Lo_crypto.Signer

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let scheme = Signer.simulation ()

let dummy_evidence seed =
  let signer = Signer.make scheme ~seed in
  let log_a = Commitment.Log.create ~signer () in
  let log_b = Commitment.Log.create ~signer () in
  ignore (Commitment.Log.append log_a ~source:None ~ids:[ 1 ]);
  ignore (Commitment.Log.append log_b ~source:None ~ids:[ 2 ]);
  ( Signer.id signer,
    Evidence.Conflicting_digests
      {
        older = Commitment.Log.current_digest log_a;
        newer = Commitment.Log.current_digest log_b;
      } )

let enforcement_tests =
  [
    Alcotest.test_case "registration and stake" `Quick (fun () ->
        let t = Enforcement.create () in
        Enforcement.register t ~id:"m1" ~stake:100;
        check_int "stake" 100 (Enforcement.stake t ~id:"m1");
        check_bool "eligible" true (Enforcement.is_eligible t ~id:"m1");
        check_bool "unknown" false (Enforcement.is_eligible t ~id:"ghost"));
    Alcotest.test_case "slashing burns half and disconnects" `Quick (fun () ->
        let t = Enforcement.create () in
        let id, ev = dummy_evidence "slash-1" in
        Enforcement.register t ~id ~stake:100;
        Enforcement.punish t ~id ev ~now:10.0;
        check_int "half gone" 50 (Enforcement.stake t ~id);
        check_int "burned" 50 (Enforcement.slashed_total t);
        check_bool "disconnected" true (Enforcement.disconnected_until t ~id <> None);
        check_bool "not eligible" false (Enforcement.is_eligible t ~id));
    Alcotest.test_case "same evidence never slashes twice" `Quick (fun () ->
        let t = Enforcement.create () in
        let id, ev = dummy_evidence "slash-2" in
        Enforcement.register t ~id ~stake:100;
        Enforcement.punish t ~id ev ~now:1.0;
        Enforcement.punish t ~id ev ~now:2.0;
        check_int "only once" 50 (Enforcement.stake t ~id));
    Alcotest.test_case "distinct evidence compounds" `Quick (fun () ->
        let t = Enforcement.create () in
        let id, ev1 = dummy_evidence "slash-3" in
        let _, ev2 = dummy_evidence "slash-3b" in
        Enforcement.register t ~id ~stake:100;
        Enforcement.punish t ~id ev1 ~now:1.0;
        Enforcement.punish t ~id ev2 ~now:2.0;
        check_int "compounded" 25 (Enforcement.stake t ~id));
    Alcotest.test_case "disconnection expires via tick" `Quick (fun () ->
        let t = Enforcement.create () in
        let id, ev = dummy_evidence "slash-4" in
        Enforcement.register t ~id ~stake:100;
        Enforcement.punish t ~id ev ~now:0.0;
        Enforcement.tick t ~now:10.0;
        check_bool "still out" false (Enforcement.is_eligible t ~id);
        Enforcement.tick t ~now:31.0;
        check_bool "readmitted" true (Enforcement.is_eligible t ~id));
    Alcotest.test_case "min stake gates eligibility" `Quick (fun () ->
        let t =
          Enforcement.create
            ~policy:{ slash_fraction = 0.9; min_stake = 20; disconnect_for = 0. }
            ()
        in
        let id, ev = dummy_evidence "slash-5" in
        Enforcement.register t ~id ~stake:100;
        Enforcement.punish t ~id ev ~now:0.0;
        check_int "10 left" 10 (Enforcement.stake t ~id);
        check_bool "below floor" false (Enforcement.is_eligible t ~id);
        check_bool "not listed" true
          (not (List.mem id (Enforcement.eligible_ids t))));
    Alcotest.test_case "bad policy rejected" `Quick (fun () ->
        Alcotest.check_raises "fraction"
          (Invalid_argument "Enforcement.create: slash_fraction") (fun () ->
            ignore
              (Enforcement.create
                 ~policy:{ slash_fraction = 1.5; min_stake = 0; disconnect_for = 0. }
                 ())));
  ]

(* --- client + miner-network fixtures --- *)

type world = {
  net : Net.t;
  nodes : Node.t array;
  client : Client.t;
}

let mk_world ?(behaviors = fun _ -> Node.Honest) ?(miners = 10) ~seed () =
  (* miner indices 0..miners-1; the client sits at index [miners] *)
  let scheme = Signer.simulation () in
  let total = miners + 1 in
  let net = Net.create ~num_nodes:total ~seed () in
  let mux = Lo_net.Mux.create net in
  let signers =
    Array.init miners (fun i -> Signer.make scheme ~seed:(Printf.sprintf "em%d" i))
  in
  let directory = Directory.create ~ids:(Array.map Signer.id signers) in
  let rng = Lo_net.Rng.create (seed + 1) in
  let topo = Lo_net.Topology.build rng ~n:miners ~out_degree:4 ~max_in:125 in
  let config = Node.default_config scheme in
  let nodes =
    Array.init miners (fun i ->
        Node.create config
          ~transport:(Lo_net.Sim_transport.make ~net ~mux ~node:i)
          ~rng:(Lo_net.Rng.split (Lo_net.Network.rng net))
          ~directory ~signer:signers.(i)
          ~neighbors:(Lo_net.Topology.neighbors topo i)
          ~behavior:(behaviors i))
  in
  Array.iter Node.start nodes;
  let client_signer = Signer.make scheme ~seed:"stage1-client" in
  let client =
    Client.create
      (Client.default_config scheme)
      ~net ~index:miners ~signer:client_signer
      ~miners:(List.init miners (fun i -> (i, Signer.id signers.(i))))
  in
  Client.start client;
  { net; nodes; client }

let client_tests =
  [
    Alcotest.test_case "submission is acknowledged and spreads" `Slow (fun () ->
        let w = mk_world ~seed:900 () in
        let acked = ref None in
        Client.on_acknowledged w.client (fun tx ~now -> acked := Some (tx, now));
        let tx = Client.submit w.client ~fee:10 ~payload:"stage-one" in
        Net.run_until w.net 20.0;
        check_bool "acked" true (Client.acknowledged w.client ~txid:tx.Tx.id);
        check_bool "multiple receipts" true (Client.ack_count w.client ~txid:tx.Tx.id >= 2);
        check_bool "hook fired" true (!acked <> None);
        check_int "one wave" 1 (Client.attempts w.client ~txid:tx.Tx.id);
        Array.iter
          (fun node -> check_int "everywhere" 1 (Mempool.size (Node.mempool node)))
          w.nodes);
    Alcotest.test_case "client resubmits through dead miners" `Slow (fun () ->
        let w = mk_world ~seed:901 () in
        (* first wave will hit some of these; kill a majority *)
        for i = 0 to 6 do
          Net.set_down w.net i true
        done;
        let tx = Client.submit w.client ~fee:10 ~payload:"persist" in
        Net.run_until w.net 20.0;
        check_bool "eventually acked" true
          (Client.acknowledged w.client ~txid:tx.Tx.id
          || Client.attempts w.client ~txid:tx.Tx.id > 1));
    Alcotest.test_case "fake ack from censor does not stop propagation" `Slow
      (fun () ->
        (* miner 0 censors 'victim' payloads but still acks (the paper's
           fake-acknowledgement attacker); the client's fanout > 1 lands
           the tx on honest miners anyway. *)
        let pred (tx : Tx.t) =
          String.length tx.Tx.payload >= 6
          && String.equal (String.sub tx.Tx.payload 0 6) "victim"
        in
        let w =
          mk_world ~seed:902
            ~behaviors:(fun i -> if i = 0 then Node.Tx_censor pred else Node.Honest)
            ()
        in
        let tx = Client.submit w.client ~fee:10 ~payload:"victim-payment" in
        Net.run_until w.net 25.0;
        (* the censor acked (fake) or not, but honest miners carry it *)
        let carrying =
          Array.to_list w.nodes
          |> List.filter (fun node -> Mempool.find_id (Node.mempool node) tx.Tx.id <> None)
          |> List.length
        in
        check_bool "propagated despite censor" true (carrying >= 9));
    Alcotest.test_case "forged acks are ignored" `Slow (fun () ->
        let w = mk_world ~seed:903 () in
        let tx = Client.submit w.client ~fee:10 ~payload:"no-forgery" in
        (* a bogus ack from a non-miner index with garbage signature *)
        Net.send w.net ~src:3 ~dst:10 ~tag:"lo:submit-ack"
          (Messages.encode
             (Messages.Submit_ack
                { txid = tx.Tx.id; ack_signature = String.make 64 'z' }));
        Net.run_until w.net 0.01;
        check_int "not counted" 0 (Client.ack_count w.client ~txid:tx.Tx.id));
  ]

let integration_tests =
  [
    Alcotest.test_case "exposed creator's blocks are rejected when enabled" `Slow
      (fun () ->
        let scheme = Signer.simulation () in
        let n = 12 in
        let net = Net.create ~num_nodes:n ~seed:904 () in
        let mux = Lo_net.Mux.create net in
        let signers =
          Array.init n (fun i -> Signer.make scheme ~seed:(Printf.sprintf "re%d" i))
        in
        let directory = Directory.create ~ids:(Array.map Signer.id signers) in
        let rng = Lo_net.Rng.create 905 in
        let topo = Lo_net.Topology.build rng ~n ~out_degree:6 ~max_in:125 in
        let config =
          { (Node.default_config scheme) with Node.reject_exposed_blocks = true }
        in
        let nodes =
          Array.init n (fun i ->
              Node.create config
                ~transport:(Lo_net.Sim_transport.make ~net ~mux ~node:i)
                ~rng:(Lo_net.Rng.split (Lo_net.Network.rng net))
                ~directory ~signer:signers.(i)
                ~neighbors:(Lo_net.Topology.neighbors topo i)
                ~behavior:(if i = 0 then Node.Block_reorderer else Node.Honest))
        in
        Array.iter Node.start nodes;
        let client = Signer.make scheme ~seed:"re-client" in
        for k = 0 to 9 do
          let tx =
            Tx.create ~signer:client ~fee:(5 + k) ~created_at:0.0
              ~payload:(Printf.sprintf "re%d" k)
          in
          Node.submit_tx nodes.(1 + (k mod (n - 1))) tx
        done;
        Net.run_until net 15.0;
        (* First bad block exposes the reorderer everywhere. *)
        ignore (Node.build_block nodes.(0) ~policy:Policy.Lo_fifo);
        Net.run_until net 40.0;
        let bad = Node.node_id nodes.(0) in
        let exposing =
          Array.to_list nodes
          |> List.filter (fun node ->
                 Node.index node <> 0
                 && Accountability.is_exposed (Node.accountability node) bad)
          |> List.length
        in
        check_int "exposed everywhere" (n - 1) exposing;
        (* A second block from the exposed creator is now refused. *)
        let tx =
          Tx.create ~signer:client ~fee:50 ~created_at:(Net.now net)
            ~payload:"post-exposure"
        in
        Node.submit_tx nodes.(2) tx;
        Net.run_until net 55.0;
        ignore (Node.build_block nodes.(0) ~policy:Policy.Lo_fifo);
        Net.run_until net 70.0;
        Array.iteri
          (fun i node ->
            if i <> 0 then
              check_int "height stuck at 1" 1 (Node.chain_height node))
          nodes);
    Alcotest.test_case "accountability drives slashing end to end" `Slow
      (fun () ->
        let scheme = Signer.simulation () in
        let n = 10 in
        let net = Net.create ~num_nodes:n ~seed:906 () in
        let trace = Lo_obs.Trace.create ~capacity:1 () in
        Net.set_trace net (Some trace);
        let mux = Lo_net.Mux.create net in
        let signers =
          Array.init n (fun i -> Signer.make scheme ~seed:(Printf.sprintf "sl%d" i))
        in
        let directory = Directory.create ~ids:(Array.map Signer.id signers) in
        let rng = Lo_net.Rng.create 907 in
        let topo = Lo_net.Topology.build rng ~n ~out_degree:5 ~max_in:125 in
        let config = Node.default_config scheme in
        let nodes =
          Array.init n (fun i ->
              Node.create config
                ~transport:(Lo_net.Sim_transport.make ~net ~mux ~node:i)
                ~rng:(Lo_net.Rng.split (Lo_net.Network.rng net))
                ~directory ~signer:signers.(i)
                ~neighbors:(Lo_net.Topology.neighbors topo i)
                ~behavior:(if i = 0 then Node.Equivocator else Node.Honest))
        in
        Array.iter Node.start nodes;
        (* Observer node 1 feeds its verified exposures into a ledger. *)
        let ledger = Enforcement.create () in
        Array.iter
          (fun s -> Enforcement.register ledger ~id:(Signer.id s) ~stake:1000)
          signers;
        Lo_obs.Trace.observe trace
          (function
          | { Lo_obs.Trace.at = now; ev = Lo_obs.Event.Expose { node = 1; peer } }
            -> (
              let accused = Signer.id signers.(peer) in
              match
                Accountability.status (Node.accountability nodes.(1)) accused
              with
              | Accountability.Exposed ev ->
                  Enforcement.punish ledger ~id:accused ev ~now
              | _ -> ())
          | _ -> ());
        let client = Signer.make scheme ~seed:"sl-client" in
        let tx = Tx.create ~signer:client ~fee:9 ~created_at:0.0 ~payload:"fork" in
        Node.submit_tx nodes.(0) tx;
        Net.run_until net 60.0;
        let bad = Signer.id signers.(0) in
        check_bool "slashed" true (Enforcement.stake ledger ~id:bad < 1000);
        check_bool "honest untouched" true
          (Enforcement.stake ledger ~id:(Signer.id signers.(3)) = 1000));
  ]

let () =
  Alcotest.run "lo_enforcement"
    [
      ("enforcement", enforcement_tests);
      ("client", client_tests);
      ("integration", integration_tests);
    ]
