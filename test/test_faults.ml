(* Fault-injection coverage: the reconciler's exponential backoff and
   suspicion-withdrawal machinery driven directly, block inspections
   parked on a missing digest pair, a full-deployment
   crash/heal cycle (a crashed-but-honest node must be suspected, then
   withdrawn, and never exposed), and the chaos experiment's acceptance
   properties at the seeds the issue pins. *)

open Lo_core
module Net = Lo_net.Network
module Signer = Lo_crypto.Signer
module Rng = Lo_net.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- Reconciler harness (as in test_reconciler) -------- *)

type harness = {
  env : Node_env.t;
  reconciler : Reconciler.t;
  broadcasts : Messages.t list ref;
  timers : (float * (unit -> unit)) Queue.t;
  clock : float ref;
  cleared : string list ref;
  peer_id : string;
  peer_signer : Signer.t;
}

let make_harness () =
  let scheme = Signer.simulation () in
  let config = Node_env.default_config scheme in
  let signer = Signer.make scheme ~seed:"fault-test-me" in
  let peer_signer = Signer.make scheme ~seed:"fault-test-peer" in
  let my_id = Signer.id signer in
  let peer_id = Signer.id peer_signer in
  let ids = [| my_id; peer_id |] in
  let log =
    Commitment.Log.create ~signer ()
  in
  let mempool = Mempool.create () in
  let content = Content_sync.create ~mempool ~adversary:Adversary.Honest () in
  let tracker = Peer_tracker.create () in
  let broadcasts = ref [] in
  let timers = Queue.create () in
  let clock = ref 0. in
  let cleared = ref [] in
  (* Withdrawals are observed on the trace. *)
  let trace = Lo_obs.Trace.create ~capacity:1 () in
  Lo_obs.Trace.observe trace
    (function
    | { Lo_obs.Trace.ev = Lo_obs.Event.Clear { peer; _ }; _ } ->
        cleared := ids.(peer) :: !cleared
    | _ -> ());
  let env =
    {
      Node_env.config;
      hooks = Node_env.no_hooks ();
      trace = Some trace;
      my_id;
      my_index = 0;
      signer;
      rng = Rng.create 7;
      acc = Accountability.create ();
      primary_log = log;
      now = (fun () -> !clock);
      send = (fun ~dst:_ _ -> ());
      broadcast = (fun msg -> broadcasts := msg :: !broadcasts);
      schedule = (fun ~delay fn -> Queue.add (!clock +. delay, fn) timers);
      id_of = (fun i -> ids.(i));
      index_of =
        (fun id ->
          let rec find i =
            if i >= Array.length ids then None
            else if String.equal ids.(i) id then Some i
            else find (i + 1)
          in
          find 0);
      population = (fun () -> Array.length ids);
      neighbors = (fun () -> [ 1 ]);
      log_for = (fun ~peer_index:_ -> log);
      wire_digest =
        (fun ~peer_index:_ -> Commitment.Log.current_digest_light log);
      commit =
        (fun ~source ~ids -> ignore (Commitment.Log.append log ~source ~ids));
      expose = (fun ~accused:_ _ -> ());
      retry_inspections = (fun ~owner:_ -> ());
      record_deviation = (fun ~kind:_ ~height:_ -> ());
    }
  in
  {
    env;
    reconciler = Reconciler.create ~content ~tracker;
    broadcasts;
    timers;
    clock;
    cleared;
    peer_id;
    peer_signer;
  }

let fire_next h =
  let at, fn = Queue.pop h.timers in
  h.clock := Float.max !(h.clock) at;
  fn ()

let escalate_to_suspicion h =
  let retries = h.env.Node_env.config.Node_env.max_retries in
  Reconciler.reconcile_with ~force:true h.reconciler h.env ~peer_index:1;
  for _ = 1 to retries + 1 do
    fire_next h
  done

let withdrawals h =
  List.filter
    (function Messages.Suspicion_withdraw _ -> true | _ -> false)
    !(h.broadcasts)

let reconciler_tests =
  [
    Alcotest.test_case "retry delays back off exponentially" `Quick (fun () ->
        let h = make_harness () in
        let retries = h.env.Node_env.config.Node_env.max_retries in
        Reconciler.reconcile_with ~force:true h.reconciler h.env ~peer_index:1;
        (* One armed timer at a time: record each arm-to-fire gap. With
           backoff 2.0 and jitter 0.2 consecutive delay ranges do not
           overlap, so the gaps must be strictly increasing. *)
        let delays = ref [] in
        let last = ref 0. in
        for _ = 0 to retries do
          let at, _ = Queue.peek h.timers in
          delays := (at -. !last) :: !delays;
          last := at;
          fire_next h
        done;
        let delays = List.rev !delays in
        check_int "one timer per attempt" (retries + 1) (List.length delays);
        let rec increasing = function
          | a :: (b :: _ as rest) -> a < b && increasing rest
          | _ -> true
        in
        check_bool "strictly growing gaps" true (increasing delays);
        check_bool "suspected at the end" true
          (Accountability.is_suspected h.env.Node_env.acc h.peer_id));
    Alcotest.test_case "an answer after suspicion broadcasts a withdrawal"
      `Quick (fun () ->
        let h = make_harness () in
        escalate_to_suspicion h;
        check_int "no withdrawal while suspected" 0
          (List.length (withdrawals h));
        let peer_log =
          Commitment.Log.create ~signer:h.peer_signer ()
        in
        Reconciler.handle_commit_response h.reconciler h.env ~from:1
          ~digest:(Commitment.Log.current_digest peer_log)
          ~want:[] ~delta:[] ~appended:[];
        check_bool "suspicion cleared" false
          (Accountability.is_suspected h.env.Node_env.acc h.peer_id);
        (match withdrawals h with
        | [ Messages.Suspicion_withdraw { suspect; reporter } ] ->
            Alcotest.(check string) "suspect" h.peer_id suspect;
            Alcotest.(check string) "reporter" h.env.Node_env.my_id reporter
        | _ -> Alcotest.fail "expected exactly one Suspicion_withdraw"));
    Alcotest.test_case "gossiped withdrawal clears and relays once" `Quick
      (fun () ->
        let h = make_harness () in
        Accountability.suspect h.env.Node_env.acc ~peer:h.peer_id ~now:0.
          ~reason:"test";
        Reconciler.handle_withdrawal h.reconciler h.env ~suspect:h.peer_id
          ~reporter:"someone";
        check_bool "cleared" false
          (Accountability.is_suspected h.env.Node_env.acc h.peer_id);
        check_int "clear event" 1 (List.length !(h.cleared));
        check_int "relayed once" 1 (List.length (withdrawals h));
        (* A duplicate withdrawal is a no-op: state did not change. *)
        Reconciler.handle_withdrawal h.reconciler h.env ~suspect:h.peer_id
          ~reporter:"someone";
        check_int "no re-relay" 1 (List.length (withdrawals h)));
    Alcotest.test_case "unresponsiveness score demotes and resets" `Quick
      (fun () ->
        let h = make_harness () in
        check_int "starts clean" 0
          (Reconciler.unresponsive_score h.reconciler h.peer_id);
        escalate_to_suspicion h;
        check_int "one escalation" 1
          (Reconciler.unresponsive_score h.reconciler h.peer_id);
        Reconciler.resolve_pending h.reconciler h.env ~peer:h.peer_id;
        check_int "answer resets" 0
          (Reconciler.unresponsive_score h.reconciler h.peer_id));
  ]

(* ---------------- Parked block inspections ---------------- *)

(* A peer's block reorders a bundle it declared, and we hold none of
   the peer's signed digests: the inspector flags the reordering but
   has no evidence pair, so the block is parked until the peer's
   digests arrive. Each arriving digest of the creator re-inspects it,
   at most 5 times. *)
let parked_inspection_tests =
  [
    Alcotest.test_case "parked once, retried per creator digest, 5 retries"
      `Quick (fun () ->
        let h = make_harness () in
        let scheme = h.env.Node_env.config.Node_env.scheme in
        let mempool = Mempool.create () in
        let content =
          Content_sync.create ~mempool ~adversary:Adversary.Honest ()
        in
        let tracker = Peer_tracker.create () in
        let pipeline =
          Block_pipeline.create ~adversary:Adversary.Honest ~tracker ~content
            ~mempool
        in
        let inspections = ref 0 in
        let hooks = Node_env.no_hooks () in
        hooks.on_violation <- (fun _ ~block:_ -> incr inspections);
        (* A third directory member, whose digests are tracked too. *)
        let third = Signer.make scheme ~seed:"fault-test-third" in
        let env = ref h.env in
        env :=
          {
            h.env with
            hooks;
            retry_inspections =
              (fun ~owner -> Block_pipeline.retry_inspections pipeline !env ~owner);
            index_of =
              (fun id ->
                if String.equal id (Signer.id third) then Some 2
                else h.env.Node_env.index_of id);
          };
        let txs =
          List.init 3 (fun i ->
              Tx.create ~signer:h.peer_signer ~fee:5 ~created_at:0.
                ~payload:(Printf.sprintf "parked-%d" i))
        in
        let ids = List.map Tx.short_id txs in
        Peer_tracker.note_appended tracker !env ~owner:h.peer_id ~seq:1 ids;
        let canonical =
          Order.sort_bundle ~seed:Block.genesis_hash ~bundle_seq:1 ids
        in
        let txid id = (List.find (fun tx -> Tx.short_id tx = id) txs).Tx.id in
        let block =
          Block.create ~signer:h.peer_signer ~height:1
            ~prev_hash:Block.genesis_hash ~start_seq:0 ~commit_seq:1
            ~fee_threshold:0
            ~txids:(List.rev_map txid canonical)
            ~bundle_sizes:[ 3 ] ~appendix:0 ~omissions:[] ~timestamp:1.0
        in
        (* The creator's digests at seqs 3.. never form the (0, 1) pair. *)
        let peer_log = Commitment.Log.create ~signer:h.peer_signer () in
        for i = 1 to 10 do
          ignore (Commitment.Log.append peer_log ~source:None ~ids:[ 1000 + i ])
        done;
        let deliver_peer seq =
          Peer_tracker.note_digest tracker !env
            (Option.get (Commitment.Log.digest_at peer_log ~seq))
        in
        Block_pipeline.accept_block pipeline !env block ~from:1;
        check_int "inspected on receipt" 1 !inspections;
        Block_pipeline.accept_block pipeline !env block ~from:1;
        check_int "a repeat announcement is not re-inspected" 1 !inspections;
        (* Another owner's digest leaves the parked block alone. *)
        let third_log = Commitment.Log.create ~signer:third () in
        ignore (Commitment.Log.append third_log ~source:None ~ids:[ 7 ]);
        Peer_tracker.note_digest tracker !env
          (Commitment.Log.current_digest third_log);
        check_int "other owners do not retry" 1 !inspections;
        deliver_peer 3;
        check_int "creator digest re-inspects" 2 !inspections;
        (* Inspected twice by now, yet parked once: the next digest
           re-inspects it exactly once more. *)
        deliver_peer 4;
        check_int "parked once" 3 !inspections;
        for seq = 5 to 10 do
          deliver_peer seq
        done;
        check_int "retries stop after 5" (1 + 5) !inspections);
  ]

(* ---------------- Crash / heal on a full deployment ----------------- *)

type deployment = {
  net : Net.t;
  trace : Lo_obs.Trace.t;  (* one-entry ring: its counters are what we read *)
  nodes : Node.t array;
  client : Signer.t;
}

(* Tight escalation so a 10 s outage comfortably reaches the suspicion
   stage: 0.5 + 1 + 2 = 3.5 s to blame. *)
let mk_network ~n ~seed () =
  let scheme = Signer.simulation () in
  let net = Net.create ~num_nodes:n ~seed () in
  let trace = Lo_obs.Trace.create ~capacity:1 () in
  Net.set_trace net (Some trace);
  let mux = Lo_net.Mux.create net in
  let signers =
    Array.init n (fun i ->
        Signer.make scheme ~seed:(Printf.sprintf "f%d-%d" seed i))
  in
  let directory = Directory.create ~ids:(Array.map Signer.id signers) in
  let rng = Rng.create (seed + 1) in
  let topo = Lo_net.Topology.build rng ~n ~out_degree:8 ~max_in:125 in
  let config =
    {
      (Node.default_config scheme) with
      Node.request_timeout = 0.5;
      max_retries = 2;
    }
  in
  let nodes =
    Array.init n (fun i ->
        Node.create config
          ~transport:(Lo_net.Sim_transport.make ~net ~mux ~node:i)
          ~rng:(Lo_net.Rng.split (Lo_net.Network.rng net))
          ~directory ~signer:signers.(i)
          ~neighbors:(Lo_net.Topology.neighbors topo i)
          ~behavior:Node.Honest)
  in
  Array.iter Node.start nodes;
  { net; trace; nodes; client = Signer.make scheme ~seed:"fault-client" }

let submit d ~target ~fee payload =
  let tx =
    Tx.create ~signer:d.client ~fee ~created_at:(Net.now d.net) ~payload
  in
  Node.submit_tx d.nodes.(target) tx

let count_nodes d pred =
  Array.fold_left (fun acc node -> if pred node then acc + 1 else acc) 0 d.nodes

let crash_heal_tests =
  [
    Alcotest.test_case
      "crashed-but-honest peer: suspected, withdrawn, never exposed" `Slow
      (fun () ->
        let d = mk_network ~n:12 ~seed:311 () in
        for k = 0 to 5 do
          submit d ~target:k ~fee:(3 + k) (Printf.sprintf "pre%d" k)
        done;
        (* Crash node 4 mid-reconciliation; keep traffic flowing so its
           peers are actively trying to reconcile with it. *)
        Net.run_until d.net 1.0;
        Net.crash d.net 4;
        for k = 0 to 5 do
          submit d ~target:(k mod 4) ~fee:(9 + k) (Printf.sprintf "mid%d" k)
        done;
        Net.run_until d.net 12.0;
        let id4 = Node.node_id d.nodes.(4) in
        let suspecting =
          count_nodes d (fun node ->
              Accountability.is_suspected (Node.accountability node) id4)
        in
        check_bool "suspicion broadcast while down" true (suspecting > 0);
        (* Heal: the restart handler re-announces, re-requests heads and
           resumes reconciliation; suspicion must be withdrawn
           everywhere. *)
        Net.restart d.net 4;
        Net.run_until d.net 40.0;
        let still_suspecting =
          count_nodes d (fun node ->
              Accountability.is_suspected (Node.accountability node) id4)
        in
        check_int "withdrawn everywhere" 0 still_suspecting;
        check_bool "withdrawals actually flowed" true
          (Lo_obs.Trace.count d.trace "clear" > 0);
        let exposed =
          count_nodes d (fun node ->
              Accountability.is_exposed (Node.accountability node) id4)
        in
        check_int "never exposed" 0 exposed;
        (* The recovered node itself is consistent again: it holds no
           standing suspicions of the whole network either way. *)
        Array.iter
          (fun node ->
            let _, e = Accountability.counts (Node.accountability node) in
            check_int "no exposures anywhere" 0 e)
          d.nodes);
  ]

(* ---------------- Chaos experiment acceptance ----------------------- *)

let chaos_scale seed =
  { Lo_sim.Experiments.nodes = 16; reps = 1; rate = 4.; duration = 6.; seed }

let run_chaos seed =
  Lo_sim.Experiments.chaos ~scale:(chaos_scale seed) ~churn_rates:[ 0.4 ]
    ~partition_durations:[ 1.5 ] ~burst_losses:[ 0.3 ] ()

let chaos_tests =
  [
    Alcotest.test_case "seeds 1-3: many fault kinds, zero honest exposures"
      `Slow (fun () ->
        List.iter
          (fun seed ->
            match run_chaos seed with
            | [ cell ] ->
                check_bool
                  (Printf.sprintf "seed %d: >= 3 fault kinds" seed)
                  true
                  (cell.Lo_sim.Experiments.fault_kinds >= 3);
                check_int
                  (Printf.sprintf "seed %d: no honest exposures" seed)
                  0 cell.Lo_sim.Experiments.honest_exposures;
                check_bool
                  (Printf.sprintf "seed %d: >= 90%% suspicions resolved" seed)
                  true
                  (cell.Lo_sim.Experiments.resolution_rate >= 0.9)
            | cells ->
                Alcotest.failf "expected one cell, got %d" (List.length cells))
          [ 1; 2; 3 ]);
    Alcotest.test_case "identical seed and plan give identical reports" `Slow
      (fun () ->
        check_bool "byte-identical cells" true (run_chaos 1 = run_chaos 1));
  ]

let () =
  Alcotest.run "lo_faults"
    [
      ("reconciler-hardening", reconciler_tests);
      ("parked-inspection", parked_inspection_tests);
      ("crash-heal", crash_heal_tests);
      ("chaos", chaos_tests);
    ]
