(* Integration tests for the full LØ node: dissemination, the
   accountability properties of Sec. 3.2 (accuracy and completeness),
   detection of every manipulation primitive of Sec. 2.2, and
   bookkeeping like settled-transaction handling across blocks. *)

open Lo_core
module Net = Lo_net.Network
module Signer = Lo_crypto.Signer

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type deployment = {
  net : Net.t;
  trace : Lo_obs.Trace.t;  (* one-entry ring: read through an observer *)
  nodes : Node.t array;
  scheme : Signer.scheme;
  client : Signer.t;
}

let mk_network ?(behaviors = fun _ -> Node.Honest) ?(n = 25) ?tx_pool ~seed
    () =
  let scheme = Signer.simulation () in
  let net = Net.create ~num_nodes:n ~seed () in
  let trace = Lo_obs.Trace.create ~capacity:1 () in
  Net.set_trace net (Some trace);
  let mux = Lo_net.Mux.create net in
  let signers =
    Array.init n (fun i -> Signer.make scheme ~seed:(Printf.sprintf "n%d-%d" seed i))
  in
  let directory = Directory.create ~ids:(Array.map Signer.id signers) in
  let rng = Lo_net.Rng.create (seed + 1) in
  let topo = Lo_net.Topology.build rng ~n ~out_degree:8 ~max_in:125 in
  let config = Node.default_config scheme in
  let nodes =
    Array.init n (fun i ->
        Node.create ?tx_pool config
          ~transport:(Lo_net.Sim_transport.make ~net ~mux ~node:i)
          ~rng:(Lo_net.Rng.split (Lo_net.Network.rng net))
          ~directory ~signer:signers.(i)
          ~neighbors:(Lo_net.Topology.neighbors topo i)
          ~behavior:(behaviors i))
  in
  Array.iter Node.start nodes;
  { net; trace; nodes; scheme; client = Signer.make scheme ~seed:"client" }

let submit d ~target ~fee payload =
  let tx = Tx.create ~signer:d.client ~fee ~created_at:(Net.now d.net) ~payload in
  Node.submit_tx d.nodes.(target) tx;
  tx

let count_nodes d pred =
  Array.fold_left (fun acc node -> if pred node then acc + 1 else acc) 0 d.nodes

let dissemination_tests =
  [
    Alcotest.test_case "all nodes learn all transactions" `Slow (fun () ->
        let d = mk_network ~seed:101 () in
        let events = ref 0 in
        Array.iter
          (fun node ->
            (Node.hooks node).Node.on_tx_content <- (fun _ -> incr events))
          d.nodes;
        for k = 0 to 9 do
          ignore (submit d ~target:(k mod 25) ~fee:(10 + k) (Printf.sprintf "p%d" k))
        done;
        Net.run_until d.net 30.0;
        check_int "content everywhere" (10 * 25) !events;
        Array.iter
          (fun node -> check_int "mempool" 10 (Mempool.size (Node.mempool node)))
          d.nodes);
    Alcotest.test_case "all nodes commit in some order" `Slow (fun () ->
        let d = mk_network ~seed:102 () in
        for k = 0 to 4 do
          ignore (submit d ~target:k ~fee:5 (Printf.sprintf "c%d" k))
        done;
        Net.run_until d.net 30.0;
        Array.iter
          (fun node ->
            check_int "committed" 5 (Commitment.Log.counter (Node.commitment_log node));
            check_int "no missing content" 0 (Node.missing_content_count node))
          d.nodes);
    Alcotest.test_case "invalid transactions are dropped" `Slow (fun () ->
        let d = mk_network ~n:10 ~seed:103 () in
        let tx = submit d ~target:0 ~fee:3 "valid" in
        (* Corrupt a fresh transaction and push it over the wire. *)
        let raw = Bytes.of_string (Tx.to_string tx) in
        Bytes.set raw 40 (Char.chr (Char.code (Bytes.get raw 40) lxor 1));
        let bad = Tx.of_string (Bytes.to_string raw) in
        Node.submit_tx d.nodes.(1) bad;
        Net.run_until d.net 20.0;
        Array.iter
          (fun node -> check_int "only valid" 1 (Mempool.size (Node.mempool node)))
          d.nodes);
  ]

let accuracy_tests =
  [
    Alcotest.test_case "no suspicion or exposure among honest nodes" `Slow
      (fun () ->
        let d = mk_network ~seed:104 () in
        for k = 0 to 9 do
          ignore (submit d ~target:(2 * k mod 25) ~fee:(1 + k) (Printf.sprintf "h%d" k))
        done;
        Net.run_until d.net 40.0;
        Array.iter
          (fun node ->
            let s, e = Accountability.counts (Node.accountability node) in
            check_int "no suspects" 0 s;
            check_int "no exposures" 0 e)
          d.nodes);
    Alcotest.test_case "honest blocks pass inspection everywhere" `Slow (fun () ->
        let d = mk_network ~seed:105 () in
        for k = 0 to 9 do
          ignore (submit d ~target:k ~fee:(5 + k) (Printf.sprintf "b%d" k))
        done;
        Net.run_until d.net 20.0;
        let violations = ref 0 in
        Array.iter
          (fun node ->
            (Node.hooks node).Node.on_violation <-
              (fun _ ~block:_ -> incr violations))
          d.nodes;
        check_bool "block" true (Node.build_block d.nodes.(3) ~policy:Policy.Lo_fifo <> None);
        Net.run_until d.net 35.0;
        check_int "clean" 0 !violations);
    Alcotest.test_case "temporarily slow node recovers from suspicion" `Slow
      (fun () ->
        let d = mk_network ~n:15 ~seed:106 () in
        for k = 0 to 4 do
          ignore (submit d ~target:k ~fee:2 (Printf.sprintf "s%d" k))
        done;
        (* Node 7 crashes for a while: all messages to it are lost. *)
        Net.set_down d.net 7 true;
        ignore (submit d ~target:0 ~fee:9 "while-down");
        Net.run_until d.net 20.0;
        let id7 = Node.node_id d.nodes.(7) in
        let suspecting_before =
          count_nodes d (fun node ->
              Accountability.is_suspected (Node.accountability node) id7)
        in
        check_bool "suspected while down" true (suspecting_before > 0);
        (* It comes back; suspicion must clear (temporal accuracy). *)
        Net.set_down d.net 7 false;
        Net.run_until d.net 60.0;
        let suspecting_after =
          count_nodes d (fun node ->
              Accountability.is_suspected (Node.accountability node) id7)
        in
        check_int "cleared" 0 suspecting_after;
        let exposed =
          count_nodes d (fun node ->
              Accountability.is_exposed (Node.accountability node) id7)
        in
        check_int "never exposed" 0 exposed);
  ]

let completeness_tests =
  [
    Alcotest.test_case "silent censor suspected by every correct node" `Slow
      (fun () ->
        let d =
          mk_network ~seed:107
            ~behaviors:(fun i -> if i = 5 then Node.Silent_censor else Node.Honest)
            ()
        in
        for k = 0 to 4 do
          ignore (submit d ~target:k ~fee:(50 + k) (Printf.sprintf "w%d" k))
        done;
        Net.run_until d.net 60.0;
        let bad = Node.node_id d.nodes.(5) in
        let suspecting =
          count_nodes d (fun node ->
              Node.index node <> 5
              && Accountability.is_suspected (Node.accountability node) bad)
        in
        check_int "all suspect" 24 suspecting);
    Alcotest.test_case "equivocator exposed by every correct node" `Slow
      (fun () ->
        let d =
          mk_network ~seed:108
            ~behaviors:(fun i -> if i = 3 then Node.Equivocator else Node.Honest)
            ()
        in
        for k = 0 to 9 do
          ignore (submit d ~target:(k mod 25) ~fee:(10 + k) (Printf.sprintf "q%d" k))
        done;
        (* make the forks diverge *)
        ignore (submit d ~target:3 ~fee:99 "fork-me");
        Net.run_until d.net 90.0;
        let bad = Node.node_id d.nodes.(3) in
        let exposing =
          count_nodes d (fun node ->
              Node.index node <> 3
              && Accountability.is_exposed (Node.accountability node) bad)
        in
        check_int "all expose" 24 exposing);
  ]

let block_misbehavior_case name behavior =
  Alcotest.test_case name `Slow (fun () ->
      let d =
        mk_network ~n:20
          ~seed:(Hashtbl.hash name)
          ~behaviors:(fun i -> if i = 0 then behavior else Node.Honest)
          ()
      in
      for k = 0 to 19 do
        ignore
          (submit d ~target:(1 + (k mod 19)) ~fee:(10 + k) (Printf.sprintf "%s%d" name k))
      done;
      Net.run_until d.net 20.0;
      check_bool "block" true (Node.build_block d.nodes.(0) ~policy:Policy.Lo_fifo <> None);
      Net.run_until d.net 45.0;
      let bad = Node.node_id d.nodes.(0) in
      let exposing =
        count_nodes d (fun node ->
            Node.index node <> 0
            && Accountability.is_exposed (Node.accountability node) bad)
      in
      check_int "all expose" 19 exposing)

let detection_tests =
  [
    block_misbehavior_case "injector exposed" Node.Block_injector;
    block_misbehavior_case "reorderer exposed" Node.Block_reorderer;
    block_misbehavior_case "blockspace censor exposed"
      (Node.Blockspace_censor (fun tx -> tx.Tx.fee >= 20));
    Alcotest.test_case "tx censor starves only direct submissions" `Slow
      (fun () ->
        (* A Stage-I censor drops what is submitted directly to it; txs
           that reach the network elsewhere still spread everywhere,
           including past the censor's commitments. *)
        let pred (tx : Tx.t) = String.length tx.Tx.payload > 0 && tx.Tx.payload.[0] = 'v' in
        let d =
          mk_network ~n:15 ~seed:109
            ~behaviors:(fun i -> if i = 2 then Node.Tx_censor pred else Node.Honest)
            ()
        in
        ignore (submit d ~target:2 ~fee:50 "victim-direct");
        ignore (submit d ~target:5 ~fee:50 "victim-indirect");
        Net.run_until d.net 30.0;
        (* the direct one is gone network-wide *)
        Array.iteri
          (fun i node ->
            if i <> 2 then
              check_int "only indirect" 1 (Mempool.size (Node.mempool node)))
          d.nodes);
  ]

let chain_tests =
  [
    Alcotest.test_case "settled txs leave future blocks" `Slow (fun () ->
        let d = mk_network ~n:15 ~seed:110 () in
        for k = 0 to 4 do
          ignore (submit d ~target:k ~fee:5 (Printf.sprintf "first-%d" k))
        done;
        Net.run_until d.net 15.0;
        let b1 = Option.get (Node.build_block d.nodes.(0) ~policy:Policy.Lo_fifo) in
        check_int "first block" 5 (List.length b1.Block.txids);
        Net.run_until d.net 25.0;
        for k = 5 to 7 do
          ignore (submit d ~target:k ~fee:5 (Printf.sprintf "second-%d" k))
        done;
        Net.run_until d.net 40.0;
        (* A different leader; its block must contain only the new txs. *)
        let b2 = Option.get (Node.build_block d.nodes.(4) ~policy:Policy.Lo_fifo) in
        check_int "height" 2 b2.Block.height;
        check_int "only new" 3 (List.length b2.Block.txids);
        Net.run_until d.net 55.0;
        (* And the second block passes inspection too. *)
        Array.iter
          (fun node ->
            let _, e = Accountability.counts (Node.accountability node) in
            check_int "no exposures" 0 e)
          d.nodes);
    Alcotest.test_case "chain height propagates" `Slow (fun () ->
        let d = mk_network ~n:12 ~seed:111 () in
        ignore (submit d ~target:0 ~fee:5 "one");
        Net.run_until d.net 10.0;
        ignore (Node.build_block d.nodes.(0) ~policy:Policy.Lo_fifo);
        Net.run_until d.net 20.0;
        Array.iter
          (fun node ->
            check_int "height" 1 (Node.chain_height node);
            check_bool "block stored" true (Node.find_block node ~height:1 <> None))
          d.nodes);
    Alcotest.test_case "empty mempool yields no block" `Quick (fun () ->
        let d = mk_network ~n:5 ~seed:112 () in
        check_bool "none" true (Node.build_block d.nodes.(0) ~policy:Policy.Lo_fifo = None));
  ]

let malformed_tests =
  [
    Alcotest.test_case "undecodable payloads are counted, never raised"
      `Quick (fun () ->
        let d = mk_network ~n:3 ~seed:115 () in
        let seen = ref [] in
        Lo_obs.Trace.observe d.trace
          (function
          | { Lo_obs.Trace.ev = Lo_obs.Event.Malformed { node; src; tag }; _ }
            ->
              seen := (node, src, tag) :: !seen
          | _ -> ());
        let whole =
          Messages.encode
            (Messages.Digest_share
               (Commitment.Log.current_digest (Node.commitment_log d.nodes.(1))))
        in
        let truncated = String.sub whole 0 (String.length whole / 2) in
        (* The subscription path: bytes arriving over the network. *)
        Net.send d.net ~src:1 ~dst:0 ~tag:"lo:digest" truncated;
        Net.run_until d.net 0.5;
        check_bool "network path" true (!seen = [ (0, 1, "lo:digest") ]);
        (* The view path of the live backend. *)
        Node.handle_message_view d.nodes.(2) ~from:1 ~tag:"lo:digest"
          (Lo_codec.Reader.of_string truncated);
        check_bool "view path" true
          (!seen = [ (2, 1, "lo:digest"); (0, 1, "lo:digest") ]);
        check_int "counted" 2 (Lo_obs.Trace.count d.trace "malformed"));
  ]

(* Hostile bytes through the node: truncations, overwrites and splices
   of valid encodings of all 12 [Messages] constructors, built from a
   running deployment's own keys, logs and blocks so that what still
   decodes reaches the handlers behind the shape check (the intact
   encodings pass it). Each input either returns normally or is counted
   as one [Malformed] event (an undecodable one always is); no
   exception escapes either entry, nor the network run that follows.
   [handle_message] inputs also go to a twin deployment built with a
   world pool, so the pooled decode path sees every input too. *)
let node_fuzz_tests =
  let build ?tx_pool () =
    let d = mk_network ~n:4 ?tx_pool ~seed:781 () in
    let txs =
      List.init 4 (fun k ->
          submit d ~target:k ~fee:(3 + k) (Printf.sprintf "nf%d" k))
    in
    Net.run_until d.net 10.0;
    let block =
      match Node.build_block d.nodes.(1) ~policy:Policy.Lo_fifo with
      | Some b -> b
      | None -> Alcotest.fail "no block to fuzz"
    in
    Net.run_until d.net 15.0;
    let log = Node.commitment_log d.nodes.(1) in
    let digest = Commitment.Log.current_digest log in
    let light = Commitment.Log.current_digest_light log in
    let older =
      match Commitment.Log.digest_at log ~seq:1 with
      | Some o -> o
      | None -> Alcotest.fail "no older digest"
    in
    let id i = Node.node_id d.nodes.(i) in
    let tx = List.hd txs in
    let valid =
      Array.map Messages.encode
        [|
          Messages.Submit (submit d ~target:3 ~fee:9 "nf-fresh");
          Messages.Submit_ack
            { txid = tx.Tx.id;
              ack_signature = String.make Signer.signature_size 's' };
          Messages.Commit_request
            { digest; delta = [ 1; 2 ]; want = [ 3 ]; appended = [ 3 ] };
          Messages.Commit_response
            { digest = light; want = [ 7 ]; delta = [ 9 ]; appended = [] };
          Messages.Tx_batch txs;
          Messages.Digest_share digest;
          Messages.Digest_request { owner = id 1; seq = 1 };
          Messages.Digest_reply [ older; light ];
          Messages.Suspicion_note
            { suspect = id 2; reporter = id 1; last_digest = Some digest;
              reason = "timeout" };
          Messages.Suspicion_withdraw { suspect = id 2; reporter = id 1 };
          Messages.Exposure_note
            (Evidence.Block_bundle_violation
               { block; older; newer = digest; omitted_tx = Some tx });
          Messages.Block_announce block;
        |]
    in
    (d, valid)
  in
  let world = lazy (build ()) in
  let pooled = lazy (fst (build ~tx_pool:(Interner.Tx_pool.create ()) ())) in
  let deliver_to ~intact ~view d input =
    let node = d.nodes.(0) in
    let before = Lo_obs.Trace.count d.trace "malformed" in
    let outcome =
      match
        if view then
          Node.handle_message_view node ~from:1 ~tag:"lo:fuzz"
            (Lo_codec.Reader.of_string input)
        else Node.handle_message node ~from:1 ~tag:"lo:fuzz" input
      with
      | () -> Ok ()
      | exception e -> Error (Printexc.to_string e)
    in
    let counted = Lo_obs.Trace.count d.trace "malformed" - before in
    let decodes =
      match Messages.decode input with
      | _ -> true
      | exception Lo_codec.Reader.Malformed _ -> false
    in
    match outcome with
    | Error e -> QCheck2.Test.fail_reportf "escaped: %s" e
    | Ok () ->
        (if intact then counted = 0
         else if decodes then counted <= 1
         else counted = 1)
        || QCheck2.Test.fail_reportf "%d malformed events (decodes: %b)"
             counted decodes
  in
  let deliver ?(intact = false) ~view input =
    deliver_to ~intact ~view (fst (Lazy.force world)) input
    && (view || deliver_to ~intact ~view (Lazy.force pooled) input)
  in
  let settle () =
    List.iter
      (fun d -> Net.run_until d.net (Net.now d.net +. 5.0))
      [ fst (Lazy.force world); Lazy.force pooled ]
  in
  let overwrite s i c =
    let b = Bytes.of_string s in
    Bytes.set b i c;
    Bytes.to_string b
  in
  let mutation =
    QCheck2.Gen.(
      let valid = snd (Lazy.force world) in
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
  List.concat_map
    (fun (name, view) ->
      [
        Alcotest.test_case
          (name ^ ": every truncation and 0xff byte returns or is counted")
          `Quick (fun () ->
            let _, valid = Lazy.force world in
            Array.iteri
              (fun m s ->
                check_bool (Printf.sprintf "message %d intact" m) true
                  (deliver ~intact:true ~view s);
                for i = 0 to String.length s - 1 do
                  check_bool
                    (Printf.sprintf "message %d cut at %d" m i)
                    true
                    (deliver ~view (String.sub s 0 i));
                  check_bool
                    (Printf.sprintf "message %d, 0xff at %d" m i)
                    true
                    (deliver ~view (overwrite s i '\xff'))
                done)
              valid;
            settle ());
        QCheck_alcotest.to_alcotest
          (QCheck2.Test.make ~count:1000 ~print:Lo_crypto.Hex.encode
             ~name:(name ^ ": truncations, byte flips and splices")
             mutation (deliver ~view));
        Alcotest.test_case (name ^ ": the network runs on") `Quick settle;
      ])
    [ ("handle_message", false); ("handle_message_view", true) ]

(* The simulator ([handle_message]) and live hosts
   ([handle_message_view]) admit a [Tx_batch] through one path that
   differs only in bundle granularity: twin deployments fed the same
   frame end with the same mempool, committed ids and deviations, and
   only the commitment log's seq tells them apart. *)
let admission_tests =
  let censored (tx : Tx.t) = String.starts_with ~prefix:"censor" tx.Tx.payload in
  let twin () =
    let d =
      mk_network ~n:4 ~seed:907
        ~behaviors:(fun i -> if i = 0 then Node.Tx_censor censored else Node.Honest)
        ()
    in
    let tx ~fee payload =
      Tx.create ~signer:d.client ~fee ~created_at:0.5 ~payload
    in
    let v1 = tx ~fee:3 "adm-1" and v2 = tx ~fee:4 "adm-2" in
    let v3 = tx ~fee:5 "adm-3" and known = tx ~fee:6 "adm-known" in
    let bad =
      let raw = Bytes.of_string (Tx.to_string (tx ~fee:7 "adm-bad")) in
      let last = Bytes.length raw - 1 in
      Bytes.set raw last (Char.chr (Char.code (Bytes.get raw last) lxor 1));
      Tx.of_string (Bytes.to_string raw)
    in
    let log = Node.commitment_log d.nodes.(0) in
    ignore (Commitment.Log.append log ~source:None ~ids:[ Tx.short_id known ]);
    let frame =
      Messages.encode
        (Messages.Tx_batch
           [ v1; v2; bad; v1; known; tx ~fee:8 "censor-me"; v3 ])
    in
    (d, frame, Commitment.Log.seq log)
  in
  let outcome d =
    let node = d.nodes.(0) in
    let log = Node.commitment_log node in
    ( List.map
        (fun e -> e.Mempool.tx.Tx.id)
        (Mempool.entries_in_arrival_order (Node.mempool node)),
      Commitment.Log.oldest log (Commitment.Log.counter log),
      Node.deviations node,
      Commitment.Log.seq log )
  in
  [
    Alcotest.test_case "both entry points admit a Tx_batch alike" `Quick
      (fun () ->
        let des, frame, seq0 = twin () in
        let live, frame', _ = twin () in
        Alcotest.(check string) "same frame" frame frame';
        Node.handle_message des.nodes.(0) ~from:1 ~tag:"lo:txs" frame;
        Node.handle_message_view live.nodes.(0) ~from:1 ~tag:"lo:txs"
          (Lo_codec.Reader.of_string frame);
        let arrivals, committed, deviations, seq = outcome des in
        let arrivals', committed', deviations', seq' = outcome live in
        check_int "stored: valid, repeat once, committed; not bad or censored"
          4 (List.length arrivals);
        check_bool "same arrival order" true (arrivals = arrivals');
        check_int "committed: the prior id and three fresh ones" 4
          (List.length committed);
        check_bool "same committed ids" true (committed = committed');
        check_bool "censorship recorded" true
          (List.exists (fun (_, kind, _) -> kind = "censor-content") deviations);
        check_bool "same deviations" true (deviations = deviations');
        check_int "one bundle per fresh id" (seq0 + 3) seq;
        check_int "one bundle per frame" (seq0 + 1) seq');
  ]

(* A validly signed digest whose sketch capacity or Bloom-clock size is
   not the deployment's: once merged with or compared against a
   same-owner digest of the right shape it would raise, so the node must
   drop it at entry and count it. *)
let mis_shaped_case ~name ~seed make_odd =
  Alcotest.test_case name `Quick (fun () ->
      let d = mk_network ~n:3 ~seed () in
      let seen = ref [] in
      Lo_obs.Trace.observe d.trace
        (function
        | { Lo_obs.Trace.ev = Lo_obs.Event.Malformed { node; src; tag }; _ }
          ->
            seen := (node, src, tag) :: !seen
        | _ -> ());
      let signer = Signer.make d.scheme ~seed:"odd-shape" in
      let right = Commitment.Log.create ~signer () in
      ignore (Commitment.Log.append right ~source:None ~ids:[ 11 ]);
      let odd = make_odd signer in
      ignore (Commitment.Log.append odd ~source:None ~ids:[ 11 ]);
      ignore (Commitment.Log.append odd ~source:None ~ids:[ 12 ]);
      (* Over the network, so the bytes take the node's
         [handle_message] entry. *)
      let share log =
        Net.send d.net ~src:1 ~dst:0 ~tag:"lo:digest"
          (Messages.encode
             (Messages.Digest_share (Commitment.Log.current_digest log)));
        Net.run_until d.net (Net.now d.net +. 0.5)
      in
      share right;
      share odd;
      check_bool "one drop, counted" true (!seen = [ (0, 1, "lo:digest") ]);
      check_int "counted" 1 (Lo_obs.Trace.count d.trace "malformed"))

let mis_shaped_tests =
  [
    mis_shaped_case ~name:"sketch capacity mismatch is counted, never raised"
      ~seed:116 (fun signer ->
        Commitment.Log.create ~sketch_capacity:10 ~signer ());
    mis_shaped_case ~name:"clock size mismatch is counted, never raised"
      ~seed:117 (fun signer -> Commitment.Log.create ~clock_cells:16 ~signer ());
  ]

let storage_tests =
  [
    Alcotest.test_case "commitment storage grows with traffic" `Slow (fun () ->
        let d = mk_network ~n:10 ~seed:113 () in
        let before = Node.commitment_storage_bytes d.nodes.(0) in
        for k = 0 to 9 do
          ignore (submit d ~target:k ~fee:2 (Printf.sprintf "st%d" k))
        done;
        Net.run_until d.net 20.0;
        check_bool "grows" true (Node.commitment_storage_bytes d.nodes.(0) > before));
    Alcotest.test_case "known digests tracked per peer" `Slow (fun () ->
        let d = mk_network ~n:10 ~seed:114 () in
        ignore (submit d ~target:1 ~fee:2 "x");
        Net.run_until d.net 15.0;
        let peer = Node.node_id d.nodes.(1) in
        match Node.known_digest d.nodes.(0) ~peer with
        | Some digest -> check_bool "progress" true (digest.Commitment.counter >= 1)
        | None -> Alcotest.fail "no digest tracked");
  ]


(* Appended after the main suites: overlay churn and wire-format fuzzing. *)

let rotation_tests =
  [
    Alcotest.test_case "dissemination survives neighbor rotation" `Slow
      (fun () ->
        let d = Lo_sim.Scenario.build_lo ~n:25 ~seed:777 () in
        Lo_sim.Scenario.rotate_neighbors d ~period:3.0 ~until:40.0;
        let specs =
          Lo_sim.Scenario.standard_workload ~rate:5. ~duration:10. ~seed:777
            ~n:25
        in
        ignore (Lo_sim.Scenario.inject_workload d specs);
        Net.run_until d.net 40.0;
        let expected = List.length specs in
        Array.iter
          (fun node ->
            check_int "mempool converged" expected (Mempool.size (Node.mempool node)))
          d.nodes;
        (* rotation must not create false accusations *)
        Array.iter
          (fun node ->
            let _, e = Accountability.counts (Node.accountability node) in
            check_int "no exposures" 0 e)
          d.nodes);
    Alcotest.test_case "censor suspected even under rotation" `Slow (fun () ->
        let d =
          Lo_sim.Scenario.build_lo ~n:20 ~seed:778
            ~behaviors:(fun i -> if i = 4 then Node.Silent_censor else Node.Honest)
            ()
        in
        Lo_sim.Scenario.rotate_neighbors d ~period:3.0 ~until:60.0;
        let specs =
          Lo_sim.Scenario.standard_workload ~rate:5. ~duration:10. ~seed:778
            ~n:20
        in
        ignore (Lo_sim.Scenario.inject_workload d specs);
        Net.run_until d.net 60.0;
        let bad = Node.node_id d.nodes.(4) in
        let suspecting =
          Array.to_list d.nodes
          |> List.filter (fun node ->
                 Node.index node <> 4
                 && Accountability.is_suspected (Node.accountability node) bad)
          |> List.length
        in
        check_bool "most nodes suspect" true (suspecting >= 17));
  ]

let fuzz_tests =
  let rng = Lo_net.Rng.create 31337 in
  let random_bytes n =
    String.init n (fun _ -> Char.chr (Lo_net.Rng.int rng 256))
  in
  [
    Alcotest.test_case "random bytes never crash message decoding" `Quick
      (fun () ->
        for len = 0 to 400 do
          let payload = random_bytes len in
          match Messages.decode payload with
          | _ -> ()
          | exception Lo_codec.Reader.Malformed _ -> ()
        done);
    Alcotest.test_case "mutated valid messages never crash decoding" `Quick
      (fun () ->
        let d = mk_network ~n:3 ~seed:779 () in
        let tx = submit d ~target:0 ~fee:7 "fuzz-me" in
        let log = Node.commitment_log d.nodes.(0) in
        let base =
          [
            Messages.encode (Messages.Tx_batch [ tx ]);
            Messages.encode
              (Messages.Digest_share (Commitment.Log.current_digest log));
            Messages.encode
              (Messages.Commit_request
                 {
                   digest = Commitment.Log.current_digest_light log;
                   delta = [ 1; 2; 3 ];
                   want = [ 4 ];
                   appended = [ 1 ];
                 });
          ]
        in
        List.iter
          (fun msg ->
            for _ = 1 to 200 do
              let b = Bytes.of_string msg in
              let pos = Lo_net.Rng.int rng (Bytes.length b) in
              Bytes.set b pos (Char.chr (Lo_net.Rng.int rng 256));
              match Messages.decode (Bytes.to_string b) with
              | _ -> ()
              | exception Lo_codec.Reader.Malformed _ -> ()
            done)
          base);
    Alcotest.test_case "nodes survive a byte-flipping adversary" `Slow
      (fun () ->
        (* node 0's outbound messages are randomly corrupted in flight;
           the network must neither crash nor falsely expose anyone *)
        let d = mk_network ~n:10 ~seed:780 () in
        let flip = Lo_net.Rng.create 4242 in
        Net.set_delivery_filter d.net
          (Some
             (fun ~src ~dst:_ ~tag:_ ->
               (* drop ~30% of node 0's messages instead of corrupting:
                  the engine carries opaque payloads, so loss models the
                  worst malformed-message outcome (decode failure) *)
               not (src = 0 && Lo_net.Rng.int flip 10 < 3)));
        for k = 0 to 4 do
          ignore (submit d ~target:k ~fee:3 (Printf.sprintf "fz%d" k))
        done;
        Net.run_until d.net 30.0;
        Array.iter
          (fun node ->
            let _, e = Accountability.counts (Node.accountability node) in
            check_int "no exposures" 0 e)
          d.nodes);
  ]

let loss_tests =
  [
    Alcotest.test_case "converges over 10% lossy links" `Slow (fun () ->
        let d = Lo_sim.Scenario.build_lo ~loss_rate:0.10 ~n:20 ~seed:950 () in
        let specs =
          Lo_sim.Scenario.standard_workload ~rate:5. ~duration:10. ~seed:950
            ~n:20
        in
        ignore (Lo_sim.Scenario.inject_workload d specs);
        Net.run_until d.net 60.0;
        let expected = List.length specs in
        Array.iter
          (fun node ->
            check_int "mempool converged" expected (Mempool.size (Node.mempool node)))
          d.nodes);
    Alcotest.test_case "loss never causes exposures" `Slow (fun () ->
        let d = Lo_sim.Scenario.build_lo ~loss_rate:0.15 ~n:15 ~seed:951 () in
        let specs =
          Lo_sim.Scenario.standard_workload ~rate:5. ~duration:8. ~seed:951
            ~n:15
        in
        ignore (Lo_sim.Scenario.inject_workload d specs);
        Net.run_until d.net 60.0;
        Array.iter
          (fun node ->
            let _, e = Accountability.counts (Node.accountability node) in
            check_int "no exposures" 0 e)
          d.nodes);
    Alcotest.test_case "suspicions under loss eventually clear" `Slow (fun () ->
        let d = Lo_sim.Scenario.build_lo ~loss_rate:0.20 ~n:12 ~seed:952 () in
        let specs =
          Lo_sim.Scenario.standard_workload ~rate:4. ~duration:6. ~seed:952
            ~n:12
        in
        ignore (Lo_sim.Scenario.inject_workload d specs);
        Net.run_until d.net 20.0;
        (* heal the network and give probes time to clear everything *)
        Net.set_loss_rate d.net 0.0;
        Net.run_until d.net 80.0;
        Array.iter
          (fun node ->
            let s, _ = Accountability.counts (Node.accountability node) in
            check_int "no lingering suspicion" 0 s)
          d.nodes);
  ]

let wire_invariant_tests =
  [
    Alcotest.test_case "delta/want lists never exceed the configured cap"
      `Slow (fun () ->
        (* Node 14 is replaced by a wire spy: it decodes every LØ
           message addressed to it and asserts the protocol caps. Its
           silence costs nothing — senders' caps are what we check. *)
        let d = mk_network ~n:15 ~seed:970 () in
        let max_delta = Node_env.max_delta in
        let violations = ref 0 and observed = ref 0 in
        Net.set_handler d.net 14 (fun _ ~from:_ ~tag:_ payload ->
            match Messages.decode payload with
            | Messages.Commit_request { delta; want; appended; _ } ->
                incr observed;
                if
                  List.length delta > max_delta
                  || List.length want > max_delta
                  || List.length appended > max_delta
                then incr violations
            | Messages.Commit_response { delta; want; appended; _ } ->
                incr observed;
                if
                  List.length delta > max_delta
                  || List.length want > max_delta
                  || List.length appended > max_delta
                then incr violations
            | _ -> ()
            | exception Lo_codec.Reader.Malformed _ -> incr violations);
        for k = 0 to 199 do
          ignore (submit d ~target:(k mod 14) ~fee:(1 + k) (Printf.sprintf "cap%d" k))
        done;
        Net.run_until d.net 25.0;
        check_bool "saw requests" true (!observed > 20);
        check_int "no cap violations" 0 !violations);
  ]

let slow_node_tests =
  [
    Alcotest.test_case "slow node: transient suspicion only, never exposure"
      `Slow (fun () ->
        (* A 20 s-delayed node misses the suspicion deadline (~15 s of
           silence with the default 1 s timeout, 3 retries and 2x
           backoff), so it gets suspected — but its (late) answers keep
           clearing the suspicion: exactly the paper's temporal-accuracy
           behaviour for slow-but-correct nodes. A mere 6 s delay no
           longer trips suspicion at all: that is what the backoff is
           for. *)
        let d = mk_network ~n:12 ~seed:960 () in
        let id6 = Node.node_id d.nodes.(6) in
        let transient = ref 0 and cleared = ref 0 in
        Lo_obs.Trace.observe d.trace
          (fun { Lo_obs.Trace.ev; _ } ->
            match ev with
            | Lo_obs.Event.Suspect { node; peer = 6 } when node <> 6 ->
                incr transient
            | Lo_obs.Event.Clear { node; peer = 6 } when node <> 6 ->
                incr cleared
            | _ -> ());
        for k = 0 to 4 do
          ignore (submit d ~target:k ~fee:3 (Printf.sprintf "slow%d" k))
        done;
        Net.run_until d.net 8.0;
        Net.set_node_delay d.net 6 20.0;
        ignore (submit d ~target:0 ~fee:9 "during-slowness");
        Net.run_until d.net 32.0;
        check_bool "transient suspicion happened" true (!transient > 0);
        (* full recovery: everything clears and stays clear *)
        Net.set_node_delay d.net 6 0.0;
        Net.run_until d.net 80.0;
        check_bool "suspicions cleared" true (!cleared >= !transient - 1);
        check_int "steady state clean" 0
          (count_nodes d (fun node ->
               Accountability.is_suspected (Node.accountability node) id6));
        check_int "never exposed" 0
          (count_nodes d (fun node ->
               Accountability.is_exposed (Node.accountability node) id6)));
  ]

(* LØ over the overlay the experiments run: every 4 s each node swaps
   its neighbours for a fresh uniform sample
   ([Scenario.rotate_neighbors], the paper's continuous sampling). *)
let rotated_overlay_tests =
  [
    Alcotest.test_case "LO over a rotated uniform overlay converges" `Slow
      (fun () ->
        let d = Lo_sim.Scenario.build_lo ~n:25 ~seed:985 () in
        Lo_sim.Scenario.rotate_neighbors d ~period:4.0 ~until:40.0;
        let specs =
          Lo_sim.Scenario.standard_workload ~rate:5. ~duration:10. ~seed:985
            ~n:25
        in
        ignore (Lo_sim.Scenario.inject_workload d specs);
        Net.run_until d.net 40.0;
        let expected = List.length specs in
        Array.iter
          (fun node ->
            check_int "mempool converged" expected (Mempool.size (Node.mempool node)))
          d.nodes;
        (* the rotation really replaced the bootstrap topology's
           neighbour sets *)
        let changed =
          Array.to_list d.nodes
          |> List.filter (fun node ->
                 List.sort compare (Node.neighbors node)
                 <> List.sort compare
                      (Lo_net.Topology.neighbors d.topology (Node.index node)))
          |> List.length
        in
        check_bool "overlay rotated" true (changed > 10);
        (* and accountability accuracy still holds *)
        Array.iter
          (fun node ->
            let _, e = Accountability.counts (Node.accountability node) in
            check_int "no exposures" 0 e)
          d.nodes);
    Alcotest.test_case "censor detection works over a rotated overlay" `Slow
      (fun () ->
        let d =
          Lo_sim.Scenario.build_lo ~n:20 ~seed:986
            ~behaviors:(fun i -> if i = 7 then Node.Silent_censor else Node.Honest)
            ()
        in
        Lo_sim.Scenario.rotate_neighbors d ~period:4.0 ~until:60.0;
        let specs =
          Lo_sim.Scenario.standard_workload ~rate:5. ~duration:10. ~seed:986
            ~n:20
        in
        ignore (Lo_sim.Scenario.inject_workload d specs);
        Net.run_until d.net 60.0;
        let bad = Node.node_id d.nodes.(7) in
        let suspecting =
          Array.to_list d.nodes
          |> List.filter (fun node ->
                 Node.index node <> 7
                 && Accountability.is_suspected (Node.accountability node) bad)
          |> List.length
        in
        check_bool "suspected by most" true (suspecting >= 16));
  ]

let collusion_tests =
  [
    Alcotest.test_case
      "off-channel transaction in a block is flagged (paper Fig. 5)" `Slow
      (fun () ->
        (* Colluder C learns the victim's transaction off-channel (here:
           we hand it the bytes directly) and stuffs it into its block's
           appendix without ever committing to it. The appendix only
           admits the creator's own fresh transactions, so every
           inspector that knows the content flags an injection. *)
        let d = mk_network ~n:12 ~seed:980 () in
        let victim_tx = submit d ~target:3 ~fee:30 "victim-swap" in
        Net.run_until d.net 15.0;
        (* C = node 0 crafts the manipulated block out-of-band. *)
        let c = d.nodes.(0) in
        let scheme_signer =
          (* reuse C's signing identity through a fresh signer handle *)
          Signer.make d.scheme ~seed:(Printf.sprintf "n%d-%d" 980 0)
        in
        let block =
          Block.create ~signer:scheme_signer ~height:1
            ~prev_hash:Block.genesis_hash ~start_seq:0 ~commit_seq:0
            ~fee_threshold:0 ~txids:[ victim_tx.Tx.id ] ~bundle_sizes:[]
            ~appendix:1 ~omissions:[] ~timestamp:(Net.now d.net)
        in
        check_bool "same identity" true
          (String.equal block.Block.creator (Node.node_id c));
        let injection_flags = ref 0 in
        Array.iter
          (fun node ->
            (Node.hooks node).Node.on_violation <-
              (fun v ~block:_ ->
                match v with
                | Inspector.Injection { bundle_seq = None; _ } ->
                    incr injection_flags
                | _ -> ()))
          d.nodes;
        (* C announces it to its neighbours. *)
        List.iter
          (fun dst ->
            Net.send d.net ~src:0 ~dst ~tag:"lo:block"
              (Messages.encode (Messages.Block_announce block)))
          (Node.neighbors c);
        Net.run_until d.net 30.0;
        check_bool "flagged by most inspectors" true (!injection_flags >= 8));
  ]

let chaos_tests =
  (* Randomised adversarial mixes: whatever the byzantine assignment,
     accuracy must hold — no honest node is ever exposed, and at the end
     of a calm period no honest node stays suspected. *)
  let prop seed =
    let n = 14 in
    let rng = Lo_net.Rng.create seed in
    let behaviors =
      Array.init n (fun i ->
          if i < 3 then
            match Lo_net.Rng.int rng 5 with
            | 0 -> Node.Silent_censor
            | 1 -> Node.Equivocator
            | 2 -> Node.Block_reorderer
            | 3 -> Node.Tx_censor (fun tx -> tx.Tx.fee > 20)
            | _ -> Node.Honest
          else Node.Honest)
    in
    let d = mk_network ~n ~seed ~behaviors:(fun i -> behaviors.(i)) () in
    for k = 0 to 7 do
      ignore (submit d ~target:(3 + (k mod (n - 3))) ~fee:(5 + (3 * k))
                (Printf.sprintf "chaos-%d-%d" seed k))
    done;
    Net.run_until d.net 20.0;
    (* a block from a random (possibly malicious) builder *)
    ignore (Node.build_block d.nodes.(Lo_net.Rng.int rng 3) ~policy:Policy.Lo_fifo);
    Net.run_until d.net 60.0;
    let honest i = match behaviors.(i) with Node.Honest -> true | _ -> false in
    Array.for_all
      (fun node ->
        let acc = Node.accountability node in
        Array.for_all
          (fun other ->
            let i = Node.index other in
            let id = Node.node_id other in
            (not (honest i))
            || ((not (Accountability.is_exposed acc id))
               && not
                    (honest (Node.index node)
                    && Accountability.is_suspected acc id)))
          d.nodes)
      d.nodes
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:8 ~name:"random adversaries never frame honest nodes"
         QCheck2.Gen.(int_range 1 10_000)
         prop);
  ]

let () =
  Alcotest.run "lo_node"
    [
      ("dissemination", dissemination_tests);
      ("accuracy", accuracy_tests);
      ("completeness", completeness_tests);
      ("detection", detection_tests);
      ("chain", chain_tests);
      ("malformed", malformed_tests @ mis_shaped_tests);
      ("handler-fuzz", node_fuzz_tests);
      ("admission", admission_tests);
      ("storage", storage_tests);
      ("rotation", rotation_tests);
      ("fuzz", fuzz_tests);
      ("loss", loss_tests);
      ("wire-invariants", wire_invariant_tests);
      ("slow-node", slow_node_tests);
      ("rotated-overlay", rotated_overlay_tests);
      ("collusion", collusion_tests);
      ("chaos", chaos_tests);
    ]