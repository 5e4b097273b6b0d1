module Network = Lo_net.Network
module Rng = Lo_net.Rng
module Signer = Lo_crypto.Signer
open Lo_core

(* Every experiment below is a thin parameterization of the shared
   {!Runner} life cycle (build -> wire -> inject -> drive -> measure);
   only the knobs and the measurement differ per figure. A figure's
   (cell x rep) grid runs as one {!Parallel.sweep}, and each measured
   quantity has one definition: content latency is
   {!Runner.content_latency_probe}, byte overhead is {!Runner.overhead}
   over the run's trace, and equivocation is driven by {!inject_forks}
   and measured by {!record_exposures}. Counts come from the trace's
   aggregates, times from an observer on its events. *)

type scale = Runner.scale = {
  nodes : int;
  reps : int;
  rate : float;
  duration : float;
  seed : int;
}

let default_scale = Runner.default_scale

let scaled ?(factor = 1.0) scale =
  { scale with nodes = max 10 (int_of_float (float_of_int scale.nodes *. factor)) }

let avg xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* An honest observer's event about a malicious node. *)
let honest_on_bad malicious node peer =
  (not malicious.(node)) && peer >= 0 && malicious.(peer)

(* Make every equivocator actually equivocate: submit one transaction
   directly to each at 0.5 s so its forks diverge. [fee] and [label]
   fix the transactions' ids. *)
let inject_forks ~malicious ~fee ~label r =
  let d = r.Runner.deployment in
  Array.iteri
    (fun i node ->
      if malicious.(i) then begin
        let tx =
          Tx.create ~signer:d.Scenario.client ~fee ~created_at:0.5
            ~payload:(Printf.sprintf "%s-%d" label i)
        in
        Network.schedule_at d.Scenario.net ~at:0.5 (fun _ ->
            Node.submit_tx node tx)
      end)
    d.Scenario.nodes

(* Fill [exposures] with, per accused malicious node (by id, added at
   its first exposure), the times honest nodes exposed it, newest
   first. *)
let record_exposures ~malicious exposures r =
  let d = r.Runner.deployment in
  Lo_obs.Trace.observe r.Runner.trace
    (fun { Lo_obs.Trace.at; ev } ->
      match ev with
      | Lo_obs.Event.Expose { node; peer }
        when honest_on_bad malicious node peer -> (
          let accused = Node.node_id d.Scenario.nodes.(peer) in
          match Hashtbl.find_opt exposures accused with
          | Some times -> times := at :: !times
          | None -> Hashtbl.add exposures accused (ref [ at ]))
      | _ -> ())

(* ----------------------------------------------------------------- *)
(* Fig. 6                                                             *)
(* ----------------------------------------------------------------- *)

type fig6_point = {
  fraction : float;
  suspicion_time : float;
  suspicion_complete : float;
  exposure_spread : float;
  exposure_complete : float;
}

let fig6_run ~scale ~fraction ~rep =
  let n = scale.nodes in
  let seed = scale.seed + (rep * 1000) + int_of_float (fraction *. 100.) in
  let malicious, num_bad = Deployment.pick_malicious ~seed ~n ~fraction in
  (* --- Suspicion: silent censors --- *)
  let all_suspected_at = Array.make n infinity in
  let suspected_bad = Array.make n 0 in
  ignore
    (Runner.run_lo ~scale ~seed ~n ~malicious
       ~behaviors:(fun i ->
         if malicious.(i) then Node.Silent_censor else Node.Honest)
       (* The paper's overlay shuffles continuously (Sec. 5.1). *)
       ~rotate_period:5.0 ~drain:30.
       ~wire:(fun r ->
         Lo_obs.Trace.observe r.Runner.trace
           (fun { Lo_obs.Trace.at; ev } ->
             match ev with
             | Lo_obs.Event.Suspect { node; peer }
               when honest_on_bad malicious node peer ->
                 suspected_bad.(node) <- suspected_bad.(node) + 1;
                 if suspected_bad.(node) = num_bad then
                   all_suspected_at.(node) <- at
             | Lo_obs.Event.Clear { node; peer }
               when honest_on_bad malicious node peer ->
                 suspected_bad.(node) <- suspected_bad.(node) - 1;
                 all_suspected_at.(node) <- infinity
             | _ -> ()))
       ());
  let suspicion_times = ref [] and complete = ref 0 and correct_count = ref 0 in
  Array.iteri
    (fun i t ->
      if not malicious.(i) then begin
        incr correct_count;
        if t < infinity then begin
          incr complete;
          suspicion_times := t :: !suspicion_times
        end
      end)
    all_suspected_at;
  let suspicion_time = avg !suspicion_times in
  let suspicion_complete =
    float_of_int !complete /. float_of_int (max 1 !correct_count)
  in
  (* --- Exposure: equivocators --- *)
  (* Paper metric: once the first correct node detects a miner, how
     long until every correct node has learned that exposure. *)
  let exposures = Hashtbl.create 16 in
  ignore
    (Runner.run_lo ~scale ~seed ~n ~malicious
       ~behaviors:(fun i ->
         if malicious.(i) then Node.Equivocator else Node.Honest)
       ~workload_seed:(seed + 1) ~rotate_period:5.0 ~drain:90.
       ~wire:(record_exposures ~malicious exposures)
       ~after_inject:(inject_forks ~malicious ~fee:10 ~label:"fork")
       ());
  (* Spread of each fully propagated exposure; completeness over all
     (correct node, malicious node) pairs. *)
  let spreads = ref [] and covered_pairs = ref 0 in
  Hashtbl.iter
    (fun _ times ->
      let count = List.length !times in
      covered_pairs := !covered_pairs + count;
      if count = !correct_count then
        spreads := (List.hd !times -. List.nth !times (count - 1)) :: !spreads)
    exposures;
  {
    fraction;
    suspicion_time;
    suspicion_complete;
    exposure_spread = avg !spreads;
    exposure_complete =
      float_of_int !covered_pairs
      /. float_of_int (max 1 (!correct_count * num_bad));
  }

let fig6 ?(scale = default_scale) ?(fractions = [ 0.1; 0.2; 0.3 ]) () =
  (* Every (fraction, rep) cell is a closed world keyed by its seed. *)
  let points =
    List.map
      (fun (fraction, runs) ->
        let mean f = avg (List.map f runs) in
        {
          fraction;
          suspicion_time = mean (fun p -> p.suspicion_time);
          suspicion_complete = mean (fun p -> p.suspicion_complete);
          exposure_spread = mean (fun p -> p.exposure_spread);
          exposure_complete = mean (fun p -> p.exposure_complete);
        })
      (Parallel.sweep ~reps:scale.reps
         (fun fraction rep -> fig6_run ~scale ~fraction ~rep)
         fractions)
  in
  Report.table ~title:"Fig. 6 — time to suspect/expose malicious miners"
    ~header:
      [ "malicious"; "suspicion (s)"; "susp. compl."; "exposure spread (s)";
        "expo. compl." ]
    (List.map
       (fun p ->
         [
           Printf.sprintf "%.0f%%" (100. *. p.fraction);
           Printf.sprintf "%.2f" p.suspicion_time;
           Printf.sprintf "%.2f" p.suspicion_complete;
           Printf.sprintf "%.2f" p.exposure_spread;
           Printf.sprintf "%.2f" p.exposure_complete;
         ])
       points);
  points

(* ----------------------------------------------------------------- *)
(* Fig. 7                                                             *)
(* ----------------------------------------------------------------- *)

type fig7_result = {
  mean_latency : float;
  p50 : float;
  p95 : float;
  density_edges : (float * float) array;
  density : float array;
  samples : int;
  mean_interactions : float;
}

let fig7_rep ~scale ~rep =
  let stats = Metrics.Stats.create () in
  let interactions = Metrics.Stats.create () in
  let hist = Metrics.Histogram.create ~lo:0. ~hi:5. ~bins:25 in
  let seed = scale.seed + (rep * 773) in
  (* Per-node count of reconciliation rounds opened, and per-tx
     snapshots of those counters at creation time — their difference
     at arrival is "how many peers this node interacted with before
     learning the transaction". *)
  let rounds = Array.make scale.nodes 0 in
  let snapshot_at_creation : (string, int array) Hashtbl.t =
    Hashtbl.create 1024
  in
  ignore
    (Runner.run_lo ~scale ~seed ~drain:20.
       ~wire:(fun r ->
         Lo_obs.Trace.observe r.Runner.trace
           (function
           | { Lo_obs.Trace.ev = Lo_obs.Event.Span_begin { node; _ }; _ } ->
               rounds.(node) <- rounds.(node) + 1
           | _ -> ());
         Runner.content_latency_probe stats r ~on_sample:(fun ~node tx dt ->
             Metrics.Histogram.add hist dt;
             match Hashtbl.find_opt snapshot_at_creation tx.Tx.id with
             | Some snap ->
                 Metrics.Stats.add interactions
                   (float_of_int (rounds.(node) - snap.(node)))
             | None -> ()))
       ~after_inject:(fun r ->
         List.iter
           (fun tx ->
             Network.schedule_at r.Runner.deployment.Scenario.net
               ~at:tx.Tx.created_at (fun _ ->
                 Hashtbl.replace snapshot_at_creation tx.Tx.id
                   (Array.copy rounds)))
           r.Runner.txs)
       ());
  (stats, interactions, hist)

let fig7 ?(scale = default_scale) () =
  let stats = Metrics.Stats.create () in
  let interactions = Metrics.Stats.create () in
  let hist = Metrics.Histogram.create ~lo:0. ~hi:5. ~bins:25 in
  (* Reps collect into their own collectors in parallel; absorbing them
     back in rep order replays the exact sample sequence a sequential
     loop feeds the shared collectors. *)
  List.iter
    (fun (_, reps) ->
      List.iter
        (fun (s, i, h) ->
          Metrics.Stats.absorb stats s;
          Metrics.Stats.absorb interactions i;
          Metrics.Histogram.absorb hist h)
        reps)
    (Parallel.sweep ~reps:scale.reps
       (fun () rep -> fig7_rep ~scale ~rep)
       [ () ]);
  let result =
    {
      mean_latency = Metrics.Stats.mean stats;
      p50 = Metrics.Stats.percentile stats 0.5;
      p95 = Metrics.Stats.percentile stats 0.95;
      density_edges = Metrics.Histogram.bin_edges hist;
      density = Metrics.Histogram.density hist;
      samples = Metrics.Stats.count stats;
      mean_interactions = Metrics.Stats.mean interactions;
    }
  in
  Report.histogram ~title:"Fig. 7 — mempool inclusion latency density"
    ~edges:result.density_edges ~density:result.density;
  Report.table ~title:"Fig. 7 — summary"
    ~header:[ "mean (s)"; "p50 (s)"; "p95 (s)"; "interactions"; "samples" ]
    [
      [
        Printf.sprintf "%.3f" result.mean_latency;
        Printf.sprintf "%.3f" result.p50;
        Printf.sprintf "%.3f" result.p95;
        Printf.sprintf "%.1f" result.mean_interactions;
        string_of_int result.samples;
      ];
    ];
  result

(* ----------------------------------------------------------------- *)
(* Fig. 8                                                             *)
(* ----------------------------------------------------------------- *)

type fig8_policy_result = {
  policy : string;
  mean : float;
  stddev : float;
  p50_b : float;
  p95_b : float;
  included : int;
  low_fee_mean : float;  (** mean latency of the cheapest-quartile txs *)
  high_fee_mean : float;  (** mean latency of the priciest-quartile txs *)
}

let block_latency_run ?(cap_factor = 0.6) ~scale ~policy ~n ~seed () =
  let block_interval = 12.0 in
  (* With [cap_factor] < 1 the blockspace sits below the arrival rate, a
     backlog forms and the selection policy matters (Fig. 8 left); with
     a generous factor latency is propagation- and block-interval-bound
     (Fig. 8 right, latency vs system size). *)
  let backlogged_cap =
    max 5 (int_of_float (cap_factor *. scale.rate *. block_interval))
  in
  let stats = Metrics.Stats.create () in
  let low_stats = Metrics.Stats.create () in
  let high_stats = Metrics.Stats.create () in
  let low_cut = Lo_workload.Fee_model.quantile Lo_workload.Fee_model.default 0.25 in
  let high_cut = Lo_workload.Fee_model.quantile Lo_workload.Fee_model.default 0.75 in
  ignore
    (Runner.run_lo ~scale ~seed ~n
       ~config:(fun c -> { c with Node.max_block_txs = backlogged_cap })
       ~blocks:(policy, block_interval) ~drain:60.
       ~wire:(fun r ->
         let recorded = Hashtbl.create 1024 in
         Array.iter
           (fun node ->
             (Node.hooks node).Node.on_block_accepted <-
               (fun block ->
                 let now = Network.now r.Runner.deployment.Scenario.net in
                 (* Record at the block creator (earliest acceptance). *)
                 if String.equal (Node.node_id node) block.Block.creator then
                   List.iter
                     (fun txid ->
                       if not (Hashtbl.mem recorded txid) then begin
                         Hashtbl.add recorded txid ();
                         match Hashtbl.find_opt r.Runner.created txid with
                         | Some t0 ->
                             let dt = now -. t0 in
                             Metrics.Stats.add stats dt;
                             (match Hashtbl.find_opt r.Runner.fees txid with
                             | Some fee when fee <= low_cut ->
                                 Metrics.Stats.add low_stats dt
                             | Some fee when fee >= high_cut ->
                                 Metrics.Stats.add high_stats dt
                             | Some _ | None -> ())
                         | None -> ()
                       end)
                     block.Block.txids))
           r.Runner.deployment.Scenario.nodes)
       ());
  (stats, low_stats, high_stats)

let fig8_left ?(scale = default_scale) () =
  let results =
    Parallel.map
      (fun policy ->
        let stats, low_stats, high_stats =
          block_latency_run ~scale ~policy ~n:scale.nodes
            ~seed:(scale.seed + 17) ()
        in
        {
          policy = Policy.to_string policy;
          mean = Metrics.Stats.mean stats;
          stddev = Metrics.Stats.stddev stats;
          p50_b = Metrics.Stats.percentile stats 0.5;
          p95_b = Metrics.Stats.percentile stats 0.95;
          included = Metrics.Stats.count stats;
          low_fee_mean = Metrics.Stats.mean low_stats;
          high_fee_mean = Metrics.Stats.mean high_stats;
        })
      [ Policy.Lo_fifo; Policy.Highest_fee ]
  in
  Report.table ~title:"Fig. 8 (left) — time until a tx is included in a block"
    ~header:
      [ "policy"; "mean (s)"; "stddev"; "p50"; "p95"; "low-fee mean";
        "high-fee mean"; "txs" ]
    (List.map
       (fun r ->
         [
           r.policy;
           Printf.sprintf "%.2f" r.mean;
           Printf.sprintf "%.2f" r.stddev;
           Printf.sprintf "%.2f" r.p50_b;
           Printf.sprintf "%.2f" r.p95_b;
           Printf.sprintf "%.2f" r.low_fee_mean;
           Printf.sprintf "%.2f" r.high_fee_mean;
           string_of_int r.included;
         ])
       results);
  results

let fig8_right ?(scale = default_scale) ?(sizes = [ 40; 80; 160 ]) () =
  let points =
    Parallel.map
      (fun n ->
        let stats, _, _ =
          block_latency_run ~cap_factor:2.0 ~scale ~policy:Policy.Lo_fifo ~n
            ~seed:(scale.seed + n) ()
        in
        (n, Metrics.Stats.mean stats))
      sizes
  in
  Report.series ~title:"Fig. 8 (right) — block inclusion latency vs system size"
    ~x_label:"nodes" ~y_label:"mean latency (s)"
    (List.map (fun (n, v) -> (float_of_int n, v)) points);
  points

(* ----------------------------------------------------------------- *)
(* Fig. 9                                                             *)
(* ----------------------------------------------------------------- *)

type fig9_row = {
  protocol : string;
  overhead_bytes : int;
  overhead_per_node_s : float;
  content_latency : float;
}

(* One LØ run measured as Fig. 9 measures it: its trace (for the byte
   flows) and its content-latency stats. *)
let lo_content_run ~scale ~seed ~always_full =
  let stats = Metrics.Stats.create () in
  let run =
    Runner.run_lo ~scale ~seed ~drain:Runner.baseline_drain
      ~config:(fun c -> { c with Node.always_full_digests = always_full })
      ~wire:(Runner.content_latency_probe stats)
      ()
  in
  (run.Runner.trace, stats)

let fig9 ?(scale = default_scale) () =
  let seed = scale.seed + 99 in
  let n = scale.nodes in
  let baseline make () = Runner.run_baseline ~scale ~seed ~make () in
  (* (protocol, content-bearing tags, run). The four protocols share
     nothing (each builds its own network from the seed), so they run as
     one parallel batch. *)
  let protocols =
    [
      ( "LO", Runner.lo_content_tags,
        fun () -> lo_content_run ~scale ~seed ~always_full:false );
      ( "Flood", [ "flood:tx" ],
        baseline (fun net scheme topo ->
            let config = Lo_baselines.Flood.default_config scheme in
            List.init n (fun i ->
                let f =
                  Lo_baselines.Flood.create config ~net ~index:i
                    ~neighbors:(Lo_net.Topology.neighbors topo i)
                in
                Lo_baselines.Flood.start f;
                {
                  Runner.submit = Lo_baselines.Flood.submit_tx f;
                  on_content = Lo_baselines.Flood.on_tx_content f;
                })) );
      ( "PeerReview", [ "pr:tx" ],
        baseline (fun net scheme topo ->
            let config = Lo_baselines.Peer_review.default_config scheme in
            let wrng = Rng.create (seed + 3) in
            (* audited(w) = nodes w witnesses for *)
            let audited = Array.make n [] in
            for node = 0 to n - 1 do
              let ws =
                Rng.sample_without_replacement wrng config.num_witnesses
                  (List.filter (fun i -> i <> node) (List.init n Fun.id))
              in
              List.iter (fun w -> audited.(w) <- node :: audited.(w)) ws
            done;
            List.init n (fun i ->
                let signer =
                  Signer.make scheme ~seed:(Printf.sprintf "pr-%d-%d" seed i)
                in
                let p =
                  Lo_baselines.Peer_review.create config ~net ~index:i
                    ~neighbors:(Lo_net.Topology.neighbors topo i)
                    ~witnesses:audited.(i) ~signer
                in
                Lo_baselines.Peer_review.start p;
                {
                  Runner.submit = Lo_baselines.Peer_review.submit_tx p;
                  on_content = Lo_baselines.Peer_review.on_tx_content p;
                })) );
      ( "Narwhal", [ "nw:batch" ],
        baseline (fun net scheme _topo ->
            let config = Lo_baselines.Narwhal.default_config scheme in
            List.init n (fun i ->
                let signer =
                  Signer.make scheme ~seed:(Printf.sprintf "nw-%d-%d" seed i)
                in
                let nw =
                  Lo_baselines.Narwhal.create config ~net ~index:i
                    ~num_nodes:n ~signer
                in
                Lo_baselines.Narwhal.start nw;
                {
                  Runner.submit = Lo_baselines.Narwhal.submit_tx nw;
                  on_content = Lo_baselines.Narwhal.on_tx_content nw;
                })) );
    ]
  in
  let measured =
    Parallel.map
      (fun (protocol, content_tags, run) ->
        let trace, stats = run () in
        let overhead_bytes = Runner.overhead ~content_tags trace in
        ( {
            protocol;
            overhead_bytes;
            overhead_per_node_s =
              float_of_int overhead_bytes /. float_of_int n
              /. (scale.duration +. Runner.baseline_drain);
            content_latency = Metrics.Stats.mean stats;
          },
          trace ))
      protocols
  in
  let rows = List.map fst measured in
  let lo, lo_trace = List.hd measured in
  let lo_by_tag = Runner.sent_by_tag lo_trace in
  Report.table ~title:"Fig. 9 — bandwidth overhead by protocol"
    ~header:
      [ "protocol"; "overhead"; "bytes/node/s"; "vs LO"; "latency (s)" ]
    (List.map
       (fun r ->
         [
           r.protocol;
           Report.bytes r.overhead_bytes;
           Printf.sprintf "%.0f" r.overhead_per_node_s;
           Printf.sprintf "%.1fx"
             (float_of_int r.overhead_bytes
             /. float_of_int (max 1 lo.overhead_bytes));
           Printf.sprintf "%.2f" r.content_latency;
         ])
       rows);
  (* Where LØ's bytes actually go, split by message kind: content tags
     carry transaction payloads; the rest is the accountability tax the
     headline overhead number aggregates. *)
  let lo_total = List.fold_left (fun acc (_, b) -> acc + b) 0 lo_by_tag in
  Report.table ~title:"Fig. 9 — LO bandwidth by message kind"
    ~header:[ "tag"; "bytes"; "share"; "class" ]
    (List.map
       (fun (tag, bytes) ->
         [
           tag;
           Report.bytes bytes;
           Printf.sprintf "%.1f%%"
             (100. *. float_of_int bytes /. float_of_int (max 1 lo_total));
           (if List.mem tag Runner.lo_content_tags then "content"
            else "overhead");
         ])
       lo_by_tag);
  rows

(* ----------------------------------------------------------------- *)
(* Fig. 10                                                            *)
(* ----------------------------------------------------------------- *)

let fig10 ?(scale = default_scale) ?(rates = [ 2.; 5.; 10.; 20.; 40. ]) () =
  let points =
    Parallel.map
      (fun rate ->
        let run =
          Runner.run_lo ~scale ~seed:(scale.seed + int_of_float rate) ~rate
            ~workload_seed:(scale.seed + 7) ~drain:0. ()
        in
        (* One span per reconciliation round opened with a neighbour. *)
        let rounds = Lo_obs.Trace.count run.Runner.trace "span_begin" in
        let per_node_min =
          float_of_int rounds /. float_of_int scale.nodes
          /. (scale.duration /. 60.)
        in
        (rate, per_node_min))
      rates
  in
  Report.series ~title:"Fig. 10 — sketch reconciliations per node per minute"
    ~x_label:"workload (tx/s)" ~y_label:"reconciliations/min" points;
  points

(* ----------------------------------------------------------------- *)
(* Sec. 6.5 — memory and CPU                                           *)
(* ----------------------------------------------------------------- *)

type decode_cost = {
  diff : int;
  monolithic_ms : float;
  partitioned_ms : float;
  partition_reconciliations : int;
}

type memcpu_result = {
  decode_costs : decode_cost list;
  commitment_sizes : (float * int) list;
  memory_10k_nodes : int;
  storage_per_node : int;
}

(* ----------------------------------------------------------------- *)
(* Trace replay                                                        *)
(* ----------------------------------------------------------------- *)

let print_violations =
  List.iter (fun v ->
      Printf.printf "  audit: %s\n" (Lo_obs.Audit.violation_to_string v))

type replay_result = {
  trace_txs : int;
  trace_duration : float;
  replay_mean_latency : float;
  replay_p95 : float;
  delivered : int;
  audit_violations : int;
}

let replay ?(scale = default_scale) ?(audit = false) ~trace () =
  let stats = Metrics.Stats.create () in
  (* The audit folds the run as it goes: a one-entry ring will do. *)
  let obs = if audit then Some (Lo_obs.Trace.create ~capacity:1 ()) else None in
  let auditor = Option.map Lo_obs.Audit.attach obs in
  let run =
    Runner.run_lo ~scale ~seed:scale.seed ~workload:(`Trace trace) ~drain:20.
      ?trace:obs
      ~wire:(Runner.content_latency_probe stats)
      ()
  in
  let duration =
    match Lo_workload.Trace.stats trace with Some (_, dur, _, _) -> dur | None -> 0.
  in
  let violations =
    match auditor with
    | Some a -> (Lo_obs.Audit.finish ~horizon:run.Runner.horizon a).violations
    | None -> []
  in
  print_violations violations;
  let result =
    {
      trace_txs = List.length trace;
      trace_duration = duration;
      replay_mean_latency = Metrics.Stats.mean stats;
      replay_p95 = Metrics.Stats.percentile stats 0.95;
      delivered = Metrics.Stats.count stats;
      audit_violations = List.length violations;
    }
  in
  Report.table ~title:"Trace replay — mempool inclusion latency"
    ~header:
      [
        "trace txs"; "trace span (s)"; "mean (s)"; "p95 (s)"; "deliveries";
        "audit";
      ]
    [
      [
        string_of_int result.trace_txs;
        Printf.sprintf "%.1f" result.trace_duration;
        Printf.sprintf "%.3f" result.replay_mean_latency;
        Printf.sprintf "%.3f" result.replay_p95;
        string_of_int result.delivered;
        (if audit then string_of_int result.audit_violations else "off");
      ];
    ];
  result

(* ----------------------------------------------------------------- *)
(* Ablations                                                           *)
(* ----------------------------------------------------------------- *)

type ablation_result = {
  light_overhead : int;
  full_overhead : int;
  light_latency : float;
  full_latency : float;
  share_period_exposure : (float * float) list;
}

let exposure_latency_one ~scale ~seed ~share_period =
  (* One repetition: per-equivocator times until 90% of correct nodes
     hold the exposure ([infinity] for a fork that evades the finite
     window). *)
  let n = scale.nodes in
  let num_bad = max 1 (n / 10) in
  let malicious = Array.init n (fun i -> i < num_bad) in
  let threshold = (9 * (n - num_bad)) / 10 in
  let exposures = Hashtbl.create 8 in
  ignore
    (Runner.run_lo ~scale ~seed ~drain:60.
       ~config:(fun c -> { c with Node.digest_share_period = share_period })
       ~behaviors:(fun i ->
         if malicious.(i) then Node.Equivocator else Node.Honest)
       ~wire:(record_exposures ~malicious exposures)
       ~after_inject:(inject_forks ~malicious ~fee:7 ~label:"ablate-fork")
       ());
  (* [times] is newest first, so the [threshold]-th exposure sits
     [count - threshold] from its head. *)
  let exposed_90_at times =
    let k = List.length !times - threshold in
    if threshold > 0 && k >= 0 then List.nth !times k else infinity
  in
  Hashtbl.fold (fun _ times acc -> exposed_90_at times :: acc) exposures []
  @ List.init (num_bad - Hashtbl.length exposures) (fun _ -> infinity)

(* A single repetition's median is over only [n/10] equivocators and is
   very noisy at test scales; pool the per-equivocator times across
   [scale.reps] independently seeded repetitions and take the median of
   the pool. *)
let pooled_median pooled =
  match List.sort compare (List.concat pooled) with
  | [] -> infinity
  | times -> List.nth times (List.length times / 2)

let ablation ?(scale = default_scale) () =
  let seed = scale.seed + 4242 in
  let overheads =
    Parallel.map
      (fun always_full ->
        let trace, stats = lo_content_run ~scale ~seed ~always_full in
        ( Runner.overhead ~content_tags:Runner.lo_content_tags trace,
          Metrics.Stats.mean stats ))
      [ false; true ]
  in
  let light_overhead, light_latency = List.nth overheads 0 in
  let full_overhead, full_latency = List.nth overheads 1 in
  let share_period_exposure =
    List.map
      (fun (period, pooled) -> (period, pooled_median pooled))
      (Parallel.sweep ~reps:(max 1 scale.reps)
         (fun period rep ->
           exposure_latency_one ~scale ~seed:(seed + (rep * 7717))
             ~share_period:period)
         [ 1.0; 2.0; 4.0; 8.0 ])
  in
  let result =
    {
      light_overhead;
      full_overhead;
      light_latency;
      full_latency;
      share_period_exposure;
    }
  in
  Report.table ~title:"Ablation — light vs full commitment digests"
    ~header:[ "wire format"; "overhead"; "content latency (s)" ]
    [
      [ "light (default)"; Report.bytes light_overhead;
        Printf.sprintf "%.2f" light_latency ];
      [ "full sketch every message"; Report.bytes full_overhead;
        Printf.sprintf "%.2f" full_latency ];
      [ "ratio"; Printf.sprintf "%.1fx"
          (float_of_int full_overhead /. float_of_int (max 1 light_overhead));
        "" ];
    ];
  Report.series
    ~title:"Ablation — digest-share period vs equivocator exposure"
    ~x_label:"share period (s)" ~y_label:"median 90%-exposed time (s)"
    (List.map
       (fun (p, v) -> (p, if Float.is_finite v then v else -1.))
       result.share_period_exposure);
  result

let time_ms f =
  let t0 = Lo_live.Clock.now_s () in
  let r = f () in
  (r, 1000. *. (Lo_live.Clock.now_s () -. t0))

(* The fastest of [decode_rounds] runs of each of [f] and [g], the two
   alternating. A decode here takes tens of milliseconds, the same order
   as a major GC slice or a spell of load on the host. Alternating puts
   both algorithms under the same spells, so a slow one cannot misorder
   them, and the minimum drops the runs it slowed. *)
let decode_rounds = 7

let alternating_best_ms f g =
  let rf, tf = time_ms f in
  let rg, tg = time_ms g in
  let tf = ref tf and tg = ref tg in
  for _ = 2 to decode_rounds do
    tf := Float.min !tf (snd (time_ms f));
    tg := Float.min !tg (snd (time_ms g))
  done;
  ((rf, !tf), (rg, !tg))

let decode_cost_for diff ~seed =
  let rng = Rng.create seed in
  let fresh () = 1 + Rng.int rng (Lo_sketch.Gf2m.mask - 1) in
  let shared = List.init 500 (fun _ -> fresh ()) in
  let local = shared @ List.init (diff / 2) (fun _ -> fresh ()) in
  let remote = shared @ List.init (diff - (diff / 2)) (fun _ -> fresh ()) in
  let ((_, mono), mono_ms), ((stats, recovered), part_ms) =
    alternating_best_ms
      (fun () ->
        Lo_sketch.Partitioned.reconcile_monolithic ~capacity:diff ~local
          ~remote ())
      (fun () -> Lo_sketch.Partitioned.reconcile ~capacity:64 ~local ~remote ())
  in
  assert (mono <> None);
  assert (List.length recovered = diff);
  {
    diff;
    monolithic_ms = mono_ms;
    partitioned_ms = part_ms;
    partition_reconciliations = stats.Lo_sketch.Partitioned.reconciliations;
  }

let commitment_size_for_rate ~scheme rate_per_min =
  (* Size the sketch capacity for the workload: enough to absorb the
     set difference accumulated between reconciliations (paper sizes
     commitments by workload the same way). *)
  let per_second = rate_per_min /. 60. in
  let capacity = max 16 (int_of_float (ceil (per_second *. 10.))) in
  let signer = Signer.make scheme ~seed:"sizing" in
  let log =
    Commitment.Log.create ~sketch_capacity:capacity ~signer ()
  in
  Commitment.encoded_size (Commitment.Log.current_digest log)

(* Deliberately sequential: this experiment reports wall-clock decode
   timings, and sharing cores with sibling tasks would skew them. *)
let memcpu ?(scale = default_scale) ?(diffs = [ 100; 250; 500; 1000 ]) () =
  let decode_costs =
    List.map (fun diff -> decode_cost_for diff ~seed:(scale.seed + diff)) diffs
  in
  let scheme = Signer.simulation () in
  let rates = [ 120.; 1200.; 6000.; 24000. ] in
  let commitment_sizes =
    List.map (fun r -> (r, commitment_size_for_rate ~scheme r)) rates
  in
  let size_at_busiest = snd (List.nth commitment_sizes (List.length rates - 1)) in
  let memory_10k_nodes = 10_000 * size_at_busiest in
  (* Measured storage: run a short deployment and look at a node's
     retained peer commitments. *)
  let run =
    Runner.run_lo ~scale ~seed:scale.seed ~n:(min scale.nodes 60) ~duration:10.
      ~drain:10. ()
  in
  let nodes = run.Runner.deployment.Scenario.nodes in
  let storage_per_node =
    Array.fold_left
      (fun acc node -> acc + Node.commitment_storage_bytes node)
      0 nodes
    / Array.length nodes
  in
  let result =
    { decode_costs; commitment_sizes; memory_10k_nodes; storage_per_node }
  in
  Report.table ~title:"Sec. 6.5 — sketch decode cost"
    ~header:[ "set diff"; "monolithic (ms)"; "partitioned (ms)"; "partitions" ]
    (List.map
       (fun c ->
         [
           string_of_int c.diff;
           Printf.sprintf "%.1f" c.monolithic_ms;
           Printf.sprintf "%.1f" c.partitioned_ms;
           string_of_int c.partition_reconciliations;
         ])
       result.decode_costs);
  Report.table ~title:"Sec. 6.5 — commitment size vs workload"
    ~header:[ "workload (tx/min)"; "commitment size" ]
    (List.map
       (fun (r, s) -> [ Printf.sprintf "%.0f" r; Report.bytes s ])
       result.commitment_sizes);
  Report.table ~title:"Sec. 6.5 — memory"
    ~header:[ "metric"; "value" ]
    [
      [ "10k peers' latest commitments"; Report.bytes result.memory_10k_nodes ];
      [ "retained peer digests per node (measured)";
        Report.bytes result.storage_per_node ];
    ];
  result

(* ----------------------------------------------------------------- *)
(* Chaos — scripted fault injection                                    *)
(* ----------------------------------------------------------------- *)

type chaos_cell = {
  churn_rate : float;
  partition_duration : float;
  burst_loss : float;
  crashes : int;
  restarts : int;
  fault_kinds : int;
  mean_tx_latency : float;
  p95_tx_latency : float;
  reconcile_attempts : int;
  reconcile_completes : int;
  reconcile_success : float;
  suspicions : int;
  withdrawn : int;
  resolution_rate : float;
  honest_exposures : int;
  audit_violations : int;
}

(* Tighter escalation than the paper's defaults so mid-length outages
   actually reach the suspicion stage within the horizon — the point of
   the experiment is to stress the suspicion -> withdrawal machinery,
   not to avoid it. *)
let chaos_config c =
  {
    c with
    Node.request_timeout = 0.6;
    max_retries = 2;
    retry_backoff = 2.0;
    retry_jitter = 0.2;
  }

(* The fault plan of one chaos world, drawn from its seed. *)
let chaos_plan ~seed ~n ~duration ~churn_rate ~partition_duration ~burst_loss =
  let rng = Rng.create ((seed * 7919) + 11) in
  let until = duration in
  Lo_net.Fault_plan.merge
    [
      (if churn_rate > 0. then
         Lo_net.Fault_plan.churn ~rng ~n ~rate:churn_rate ~mean_down:5.0 ~until
       else []);
      (if partition_duration > 0. then
         Lo_net.Fault_plan.partitions ~rng ~n
           ~period:(2. *. partition_duration) ~duration:partition_duration
           ~until
       else []);
      (if burst_loss > 0. then
         Lo_net.Fault_plan.loss_bursts ~rng ~rate:burst_loss ~period:3.0
           ~duration:1.5 ~until
       else []);
      Lo_net.Fault_plan.latency_spikes ~rng ~n
        ~k:(max 1 (n / 8))
        ~extra:0.25 ~period:4.0 ~duration:2.0 ~until;
      Lo_net.Fault_plan.link_degrades ~rng ~n ~loss:0.5 ~extra_delay:0.2
        ~period:3.0 ~duration:2.0 ~until;
    ]

(* One chaos repetition's measurements, summed per cell by {!chaos}. *)
type chaos_rep = {
  faults : Lo_net.Fault_plan.stats;
  latency : Metrics.Stats.t;
  attempts : int;  (** reconciliation spans opened *)
  completes : int;  (** spans that ended answered *)
  raised : int;
  cleared : int;
  unresolved : int;  (** suspicions still standing at the horizon *)
  exposures : int;
  audit : Lo_obs.Audit.report option;  (** when the cell is audited *)
}

let rep_violations r =
  match r.audit with Some a -> a.Lo_obs.Audit.violations | None -> []

(* Audited when given a [trace] to attach the audit to. *)
let chaos_cell_run ?trace ~scale ~churn_rate ~partition_duration ~burst_loss
    ~rep () =
  let n = scale.nodes in
  let duration = scale.duration in
  let seed =
    scale.seed + (rep * 1000)
    + (int_of_float (churn_rate *. 100.) * 7)
    + (int_of_float (partition_duration *. 10.) * 13)
    + (int_of_float (burst_loss *. 100.) * 29)
  in
  let plan =
    chaos_plan ~seed ~n ~duration ~churn_rate ~partition_duration ~burst_loss
  in
  let latency = Metrics.Stats.create () in
  let completes = ref 0 in
  let auditor = Option.map Lo_obs.Audit.attach trace in
  let run =
    Runner.run_lo ~scale ~seed ~n ~duration ~config:chaos_config ~faults:plan
      ~drain:30. ?trace
      ~wire:(fun r ->
        Runner.content_latency_probe latency r;
        (* A reconciliation completes when its span ends answered. *)
        Lo_obs.Trace.observe r.Runner.trace
          (function
          | { Lo_obs.Trace.ev = Lo_obs.Event.Span_end { ok = true; _ }; _ } ->
              incr completes
          | _ -> ()))
      ()
  in
  let count = Lo_obs.Trace.count run.Runner.trace in
  (* Resolution judged at the horizon: every suspicion raised anywhere
     that is no longer standing counts as resolved. *)
  let unresolved =
    Array.fold_left
      (fun acc node ->
        acc
        + List.length (Accountability.suspected_peers (Node.accountability node)))
      0 run.Runner.deployment.Scenario.nodes
  in
  {
    faults = Option.get run.Runner.fault_stats;
    latency;
    attempts = count "span_begin";
    completes = !completes;
    raised = count "suspect";
    cleared = count "clear";
    unresolved;
    exposures = count "expose";
    (* Returned, not printed: cells run on the domain pool and printing
       belongs to the ordered aggregation in {!chaos}. *)
    audit = Option.map (Lo_obs.Audit.finish ~horizon:run.Runner.horizon) auditor;
  }

let chaos_rep_audit ~trace ~scale ~churn_rate ~partition_duration ~burst_loss
    ~rep () =
  Option.get
    (chaos_cell_run ~trace ~scale ~churn_rate ~partition_duration ~burst_loss
       ~rep ())
      .audit

let chaos ?(scale = default_scale) ?(churn_rates = [ 0.1; 0.3 ])
    ?(partition_durations = [ 1.5; 3.0 ]) ?(burst_losses = [ 0.15; 0.35 ])
    ?(audit = false) () =
  (* Aggregation — including printing any audit violations — happens
     after the sweep, in submission order, so stdout and every cell
     statistic match the sequential nesting exactly. *)
  let cell_params =
    List.concat_map
      (fun churn_rate ->
        List.concat_map
          (fun partition_duration ->
            List.map
              (fun burst_loss -> (churn_rate, partition_duration, burst_loss))
              burst_losses)
          partition_durations)
      churn_rates
  in
  let cells =
    List.map
      (fun ((churn_rate, partition_duration, burst_loss), reps) ->
        List.iter (fun r -> print_violations (rep_violations r)) reps;
        let sum f = List.fold_left (fun acc r -> acc + f r) 0 reps in
        let attempts = sum (fun r -> r.attempts)
        and completes = sum (fun r -> r.completes)
        and raised = sum (fun r -> r.raised) in
        {
          churn_rate;
          partition_duration;
          burst_loss;
          crashes = sum (fun r -> r.faults.Lo_net.Fault_plan.crashes);
          restarts = sum (fun r -> r.faults.Lo_net.Fault_plan.restarts);
          fault_kinds =
            List.fold_left
              (fun acc r -> max acc (Lo_net.Fault_plan.kinds_injected r.faults))
              0 reps;
          (* Newest rep first: the summation order of the float means. *)
          mean_tx_latency =
            avg (List.rev_map (fun r -> Metrics.Stats.mean r.latency) reps);
          p95_tx_latency =
            avg
              (List.rev_map
                 (fun r -> Metrics.Stats.percentile r.latency 0.95)
                 reps);
          reconcile_attempts = attempts;
          reconcile_completes = completes;
          reconcile_success =
            float_of_int completes /. float_of_int (max 1 attempts);
          suspicions = raised;
          withdrawn = sum (fun r -> r.cleared);
          resolution_rate =
            (if raised = 0 then 1.0
             else
               float_of_int (raised - sum (fun r -> r.unresolved))
               /. float_of_int raised);
          honest_exposures = sum (fun r -> r.exposures);
          audit_violations = sum (fun r -> List.length (rep_violations r));
        })
      (Parallel.sweep ~reps:scale.reps
         (fun (churn_rate, partition_duration, burst_loss) rep ->
           let trace =
             if audit then Some (Lo_obs.Trace.create ~capacity:1 ()) else None
           in
           chaos_cell_run ?trace ~scale ~churn_rate ~partition_duration
             ~burst_loss ~rep ())
         cell_params)
  in
  Report.table
    ~title:
      "Chaos — fault injection (all nodes honest; exposures must be zero)"
    ~header:
      [
        "churn/s"; "part (s)"; "burst"; "crash"; "kinds"; "lat mean";
        "lat p95"; "recon ok"; "susp"; "withdrawn"; "resolved"; "exposed";
        "audit";
      ]
    (List.map
       (fun c ->
         [
           Printf.sprintf "%.2f" c.churn_rate;
           Printf.sprintf "%.1f" c.partition_duration;
           Printf.sprintf "%.2f" c.burst_loss;
           Printf.sprintf "%d/%d" c.crashes c.restarts;
           string_of_int c.fault_kinds;
           Printf.sprintf "%.3f" c.mean_tx_latency;
           Printf.sprintf "%.3f" c.p95_tx_latency;
           Printf.sprintf "%.1f%%" (100. *. c.reconcile_success);
           string_of_int c.suspicions;
           string_of_int c.withdrawn;
           Printf.sprintf "%.1f%%" (100. *. c.resolution_rate);
           string_of_int c.honest_exposures;
           (if audit then string_of_int c.audit_violations else "off");
         ])
       cells);
  cells

(* ----------------------------------------------------------------- *)
(* Trace — full-run observability driven through the audit            *)
(* ----------------------------------------------------------------- *)

type trace_kind = [ `Baseline | `Chaos | `Adversary ]

type trace_run_result = {
  trace : Lo_obs.Trace.t;
  horizon : float;
  audit : Lo_obs.Audit.report;
}

let trace_run ?(scale = default_scale) ?capacity ~kind () =
  let trace = Lo_obs.Trace.create ?capacity () in
  let auditor = Lo_obs.Audit.attach trace in
  let run =
    match kind with
    | `Baseline ->
        (* Healthy network with block production: the audit should come
           back clean — this is the regression baseline. *)
        Runner.run_lo ~scale ~seed:scale.seed ~trace
          ~blocks:(Policy.Lo_fifo, 4.0) ()
    | `Chaos ->
        (* The fault-injection cocktail of {!chaos} (one mid-intensity
           cell): crashes, partitions and loss bursts, all nodes honest.
           The audit must still come back clean — benign faults are
           excused, never blamed. *)
        let plan =
          chaos_plan ~seed:scale.seed ~n:scale.nodes ~duration:scale.duration
            ~churn_rate:0.1 ~partition_duration:1.5 ~burst_loss:0.15
        in
        Runner.run_lo ~scale ~seed:scale.seed ~config:chaos_config
          ~faults:plan ~drain:30. ~trace ()
    | `Adversary ->
        (* Node 0 is a silent censor: it never answers protocol
           requests, so suspicions of it can never resolve — the audit
           must fail, naming node 0. The long drain lets the retry
           escalation raise suspicions AND age them past the audit's
           grace window before the horizon. *)
        Runner.run_lo ~scale ~seed:scale.seed ~trace ~drain:40.
          ~behaviors:(fun i ->
            if i = 0 then Node.Silent_censor else Node.Honest)
          ~blocks:(Policy.Lo_fifo, 4.0) ()
  in
  let audit = Lo_obs.Audit.finish ~horizon:run.Runner.horizon auditor in
  Report.table ~title:"Trace — events by kind"
    ~header:[ "kind"; "count" ]
    (List.map
       (fun (k, c) -> [ k; string_of_int c ])
       (Lo_obs.Trace.kind_counts trace));
  Report.table ~title:"Trace — wire flow by message tag"
    ~header:[ "tag"; "sent"; "delivered"; "dropped"; "blocked"; "sent bytes" ]
    (List.map
       (fun (tag, f) ->
         [
           tag;
           string_of_int f.Lo_obs.Trace.sent_msgs;
           string_of_int f.Lo_obs.Trace.delivered_msgs;
           string_of_int f.Lo_obs.Trace.dropped_msgs;
           string_of_int f.Lo_obs.Trace.blocked_msgs;
           Report.bytes f.Lo_obs.Trace.sent_bytes;
         ])
       (Lo_obs.Trace.tag_flows trace));
  (match Lo_obs.Trace.phases trace with
  | [] -> ()
  | phases ->
      Report.table ~title:"Trace — harness wall-clock by phase"
        ~header:[ "phase"; "seconds" ]
        (List.map (fun (p, s) -> [ p; Printf.sprintf "%.3f" s ]) phases));
  print_violations audit.Lo_obs.Audit.violations;
  print_endline (Lo_obs.Audit.summary audit);
  { trace; horizon = run.Runner.horizon; audit }
