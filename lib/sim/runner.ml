module Network = Lo_net.Network
module Rng = Lo_net.Rng
module Signer = Lo_crypto.Signer
open Lo_core

type scale = {
  nodes : int;
  reps : int;
  rate : float;
  duration : float;
  seed : int;
}

let default_scale = { nodes = 120; reps = 3; rate = 20.; duration = 20.; seed = 42 }

type workload =
  [ `Poisson | `Trace of Lo_workload.Trace.record list ]

type run = {
  deployment : Scenario.lo_deployment;
  mutable txs : Tx.t list;
  created : (string, float) Hashtbl.t;
  fees : (string, int) Hashtbl.t;
  horizon : float;
  mutable fault_stats : Lo_net.Fault_plan.stats option;
  trace : Lo_obs.Trace.t;
}

let run_lo ?(config = fun c -> c) ?behaviors ?malicious ?loss_rate ?faults ?n
    ?rate ?duration ?(workload = `Poisson) ?workload_seed ?rotate_period
    ?blocks ?(blocks_only_honest = true) ?(drain = 20.)
    ?(wire = fun _ -> ()) ?(after_inject = fun _ -> ()) ?trace ~scale ~seed
    () =
  (* The trace is the run's only measurement ledger. Figures need its
     aggregates and observer, not its events, so without a caller sink a
     one-entry ring does. *)
  let obs =
    match trace with
    | Some tr -> tr
    | None -> Lo_obs.Trace.create ~capacity:1 ()
  in
  (* Wall-clock self-profiling: phase timings live beside the trace but
     outside the deterministic event stream (excluded from JSONL), so
     they never threaten byte-identical replays. *)
  let phase_clock = ref (Lo_live.Clock.now_s ()) in
  let note_phase name =
    let now = Lo_live.Clock.now_s () in
    Lo_obs.Trace.note_phase obs name (now -. !phase_clock);
    phase_clock := now
  in
  let n = Option.value n ~default:scale.nodes in
  let rate = Option.value rate ~default:scale.rate in
  let workload_seed = Option.value workload_seed ~default:seed in
  let d =
    Scenario.build_lo ~config ?behaviors ?malicious ?loss_rate ~trace:obs ~n
      ~seed ()
  in
  note_phase "build";
  let specs, wl_duration =
    match workload with
    | `Poisson ->
        let dur = Option.value duration ~default:scale.duration in
        (Deployment.workload ~rate ~duration:dur ~seed:workload_seed ~n, dur)
    | `Trace trace ->
        let rng = Rng.create (workload_seed + 3) in
        let dur =
          match Lo_workload.Trace.stats trace with
          | Some (_, dur, _, _) -> dur
          | None -> 0.
        in
        (Lo_workload.Trace.to_specs rng trace ~num_nodes:n, dur)
  in
  let run =
    {
      deployment = d;
      txs = [];
      created = Hashtbl.create 1024;
      fees = Hashtbl.create 1024;
      horizon = wl_duration +. drain;
      fault_stats = None;
      trace = obs;
    }
  in
  wire run;
  note_phase "wire";
  let txs = Scenario.inject_workload d specs in
  run.txs <- txs;
  List.iter
    (fun tx ->
      Hashtbl.replace run.created tx.Tx.id tx.Tx.created_at;
      Hashtbl.replace run.fees tx.Tx.id tx.Tx.fee)
    txs;
  after_inject run;
  (match faults with
  | Some plan -> run.fault_stats <- Some (Scenario.apply_fault_plan d plan)
  | None -> ());
  (match rotate_period with
  | Some period -> Scenario.rotate_neighbors d ~period ~until:run.horizon
  | None -> ());
  (match blocks with
  | Some (policy, interval) ->
      Scenario.schedule_blocks d ~policy ~interval ~until:run.horizon
        ~only_honest:blocks_only_honest ()
  | None -> ());
  note_phase "inject";
  Network.run_until d.net run.horizon;
  note_phase "run";
  (* Close the bandwidth-conservation books on whatever the horizon cut
     off, for a caller that audits its trace; a queue walk otherwise
     wasted. *)
  if trace <> None then Network.flush_in_flight d.net;
  run

(* The one content-latency rule: the first content arrival of a
   workload transaction at node [i] records [now - created], if
   positive. *)
let sample_content created stats ~on_sample i (tx : Tx.t) ~now =
  match Hashtbl.find_opt created tx.Tx.id with
  | Some t0 when now > t0 ->
      let dt = now -. t0 in
      Metrics.Stats.add stats dt;
      on_sample ~node:i tx dt
  | _ -> ()

let no_sample ~node:_ _ _ = ()

let content_latency_probe ?(on_sample = no_sample) stats run =
  let net = run.deployment.Scenario.net in
  Array.iter
    (fun node ->
      (Node.hooks node).Node.on_tx_content <-
        (fun tx ->
          sample_content run.created stats ~on_sample (Node.index node) tx
            ~now:(Network.now net)))
    run.deployment.Scenario.nodes

let lo_content_tags = [ "lo:txs"; "lo:submit"; "lo:block" ]

let sent_by_tag trace =
  List.filter_map
    (fun (tag, (f : Lo_obs.Trace.flow)) ->
      if f.sent_msgs > 0 then Some (tag, f.sent_bytes) else None)
    (Lo_obs.Trace.tag_flows trace)

let overhead ~content_tags trace =
  List.fold_left
    (fun acc (tag, bytes) ->
      if List.mem tag content_tags then acc else acc + bytes)
    0 (sent_by_tag trace)

type baseline_node = {
  submit : Tx.t -> unit;
  on_content : (Tx.t -> now:float -> unit) -> unit;
}

let baseline_drain = 15.

let run_baseline ~make ~scale ~seed () =
  let n = scale.nodes in
  let scheme = Signer.simulation () in
  let net = Network.create ~num_nodes:n ~seed () in
  let trace = Lo_obs.Trace.create ~capacity:1 () in
  Network.set_trace net (Some trace);
  let topo = Deployment.topology ~n ~seed () in
  let created = Hashtbl.create 1024 in
  let stats = Metrics.Stats.create () in
  let instances = Array.of_list (make net scheme topo) in
  Array.iteri
    (fun i inst ->
      inst.on_content (sample_content created stats ~on_sample:no_sample i))
    instances;
  let client = Signer.make scheme ~seed:"baseline-client" in
  List.iter
    (fun spec ->
      let tx =
        Tx.create ~signer:client ~fee:spec.Lo_workload.Tx_gen.fee
          ~created_at:spec.created_at
          ~payload:(Lo_workload.Tx_gen.payload spec)
      in
      Hashtbl.replace created tx.Tx.id spec.created_at;
      let origin = spec.origin mod n in
      Network.schedule_at net ~at:spec.created_at (fun _ ->
          instances.(origin).submit tx))
    (Deployment.workload ~rate:scale.rate ~duration:scale.duration ~seed ~n);
  Network.run_until net (scale.duration +. baseline_drain);
  (trace, stats)
