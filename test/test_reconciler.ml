(* The reconciliation failure path, driven through the Reconciler
   interface directly: a peer that never answers must cost exactly
   1 + max_retries requests, then a suspicion plus a gossiped
   Suspicion_note — and one real answer must clear everything
   (temporal accuracy, Sec. 3.2). A synthetic Node_env with a manual
   timer queue stands in for the discrete-event network. *)

open Lo_core
module Signer = Lo_crypto.Signer
module Rng = Lo_net.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type harness = {
  env : Node_env.t;
  reconciler : Reconciler.t;
  sent : (int * Messages.t) list ref;  (* newest first *)
  broadcasts : Messages.t list ref;
  timers : (float * (unit -> unit)) Queue.t;
  clock : float ref;
  suspicions : string list ref;
  cleared : string list ref;
  peer_id : string;
  peer_signer : Signer.t;
}

let make_harness () =
  let scheme = Signer.simulation () in
  let config = Node_env.default_config scheme in
  let signer = Signer.make scheme ~seed:"recon-test-me" in
  let peer_signer = Signer.make scheme ~seed:"recon-test-peer" in
  let my_id = Signer.id signer in
  let peer_id = Signer.id peer_signer in
  let ids = [| my_id; peer_id |] in
  let log =
    Commitment.Log.create ~signer ()
  in
  let mempool = Mempool.create () in
  let content = Content_sync.create ~mempool ~adversary:Adversary.Honest () in
  let tracker = Peer_tracker.create () in
  let sent = ref [] in
  let broadcasts = ref [] in
  let timers = Queue.create () in
  let clock = ref 0. in
  let suspicions = ref [] in
  let cleared = ref [] in
  (* Suspicion and withdrawal are observed on the trace. *)
  let trace = Lo_obs.Trace.create ~capacity:1 () in
  Lo_obs.Trace.observe trace
    (fun { Lo_obs.Trace.ev; _ } ->
      match ev with
      | Lo_obs.Event.Suspect { peer; _ } ->
          suspicions := ids.(peer) :: !suspicions
      | Lo_obs.Event.Clear { peer; _ } -> cleared := ids.(peer) :: !cleared
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
      send = (fun ~dst msg -> sent := (dst, msg) :: !sent);
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
    sent;
    broadcasts;
    timers;
    clock;
    suspicions;
    cleared;
    peer_id;
    peer_signer;
  }

let fire_next h =
  let at, fn = Queue.pop h.timers in
  h.clock := Float.max !(h.clock) at;
  fn ()

let count_requests h =
  List.length
    (List.filter
       (function _, Messages.Commit_request _ -> true | _ -> false)
       !(h.sent))

let tests =
  [
    Alcotest.test_case "timeouts escalate to suspicion broadcast" `Quick
      (fun () ->
        let h = make_harness () in
        let retries = h.env.Node_env.config.Node_env.max_retries in
        Reconciler.reconcile_with ~force:true h.reconciler h.env ~peer_index:1;
        check_int "initial request" 1 (count_requests h);
        (* Each unanswered timeout forces a retry with a fresh request,
           until the budget is spent. *)
        for _ = 1 to retries do
          fire_next h
        done;
        check_int "one request per retry" (1 + retries) (count_requests h);
        check_bool "not yet suspected" false
          (Accountability.is_suspected h.env.Node_env.acc h.peer_id);
        (* The final expiry raises the suspicion instead of retrying. *)
        fire_next h;
        check_int "no extra request" (1 + retries) (count_requests h);
        check_bool "suspected" true
          (Accountability.is_suspected h.env.Node_env.acc h.peer_id);
        check_int "one suspect event" 1 (List.length !(h.suspicions));
        (match !(h.broadcasts) with
        | [ Messages.Suspicion_note note ] ->
            Alcotest.(check string) "suspect" h.peer_id note.Messages.suspect;
            Alcotest.(check string) "reporter" h.env.Node_env.my_id
              note.Messages.reporter;
            Alcotest.(check string) "reason" "request timeout"
              note.Messages.reason;
            check_bool "no stored digest" true (note.Messages.last_digest = None)
        | _ -> Alcotest.fail "expected exactly one Suspicion_note broadcast");
        check_bool "timer queue drained" true (Queue.is_empty h.timers));
    Alcotest.test_case "a response resolves pending and clears suspicion"
      `Quick (fun () ->
        let h = make_harness () in
        let retries = h.env.Node_env.config.Node_env.max_retries in
        Reconciler.reconcile_with ~force:true h.reconciler h.env ~peer_index:1;
        for _ = 1 to retries + 1 do
          fire_next h
        done;
        check_bool "suspected after escalation" true
          (Accountability.is_suspected h.env.Node_env.acc h.peer_id);
        (* The peer comes back: its commitment digest arrives in a
           Commit_response. *)
        let peer_log =
          Commitment.Log.create ~signer:h.peer_signer ()
        in
        Reconciler.handle_commit_response h.reconciler h.env ~from:1
          ~digest:(Commitment.Log.current_digest peer_log)
          ~want:[] ~delta:[] ~appended:[];
        check_bool "suspicion cleared" false
          (Accountability.is_suspected h.env.Node_env.acc h.peer_id);
        check_int "one clear event" 1 (List.length !(h.cleared));
        (* A new exchange starts from a clean slate: full retry budget. *)
        let before = count_requests h in
        Reconciler.reconcile_with ~force:true h.reconciler h.env ~peer_index:1;
        check_int "fresh request sent" (before + 1) (count_requests h));
    Alcotest.test_case "stale timeout generations are ignored" `Quick
      (fun () ->
        let h = make_harness () in
        Reconciler.reconcile_with ~force:true h.reconciler h.env ~peer_index:1;
        check_int "armed one timer" 1 (Queue.length h.timers);
        (* The response lands before the timer fires... *)
        Reconciler.resolve_pending h.reconciler h.env ~peer:h.peer_id;
        let before = count_requests h in
        (* ...so the expiry must neither retry nor suspect. *)
        fire_next h;
        check_int "no retry from stale timer" before (count_requests h);
        check_bool "no suspicion" false
          (Accountability.is_suspected h.env.Node_env.acc h.peer_id);
        check_int "no suspect event" 0 (List.length !(h.suspicions)));
  ]

let () = Alcotest.run "lo_reconciler" [ ("failure-path", tests) ]
