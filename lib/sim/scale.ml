open Lo_core

(* Paper-scale sweeps: a 10,000-node fig6-style run decomposed into
   independent shard worlds fanned across {!Parallel} domains.

   Each shard is a closed deployment — its own network, event queue,
   RNG, directory/interner, tx pool and trace — seeded from (seed,
   shard index) only, so the result is a pure function of the inputs:
   whatever LO_JOBS says, shard reports and the merged JSONL (shard
   order, submission order within a shard) are byte-identical. *)

type shard_report = {
  shard : int;
  seed : int;
  nodes : int;
  adversaries : int;
  events : int;
  txs : int;
  delivered : int;  (* workload txs whose content reached some node *)
  honest_exposures : int;
  detections : int;  (* audit violations naming a configured adversary *)
  failures : string list;  (* violations blaming honest nodes / stream *)
  jsonl : Buffer.t option;  (* only when a merged export was requested *)
}

type report = {
  n : int;
  shards : shard_report list;
  events : int;
  txs : int;
  delivered : int;
  honest_exposures : int;
  detections : int;
  failures : string list;
  wall_s : float;
  peak_rss_mb : float option;  (* Linux VmHWM; None elsewhere *)
}

let ok r = r.failures = [] && r.honest_exposures = 0

(* Peak resident set of this process, from /proc/self/status (kB).
   Covers every domain of the sweep — exactly the laptop-RAM number the
   bench rows defend. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6))
                " %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
            else scan ()
      in
      let r = (try scan () with Scanf.Scan_failure _ | Failure _ -> None) in
      close_in ic;
      r

let default_shard_nodes = 625

let run_shard ~shard ~seed ~nodes ~fraction ~rate ~duration ~drain
    ~digest_history ~export () =
  let shard_seed = seed + (shard * 1000) in
  let malicious, num_bad =
    Deployment.pick_malicious ~seed:shard_seed ~n:nodes ~fraction
  in
  let is_adv i = i >= 0 && i < nodes && malicious.(i) in
  (* Everything read from the shard's trace is folded as it is emitted:
     the audit, the honest-exposure count and (under export) the JSONL,
     so the ring keeps a single entry. *)
  let trace = Lo_obs.Trace.create ~capacity:1 () in
  let audit = Lo_obs.Audit.attach trace in
  let honest_exposures = ref 0 in
  Lo_obs.Trace.observe trace (function
    | { Lo_obs.Trace.ev = Lo_obs.Event.Expose { peer; _ }; _ }
      when not (is_adv peer) ->
        incr honest_exposures
    | _ -> ());
  let jsonl =
    if export then begin
      let b = Buffer.create 65536 in
      Lo_obs.Trace.observe trace (Lo_obs.Jsonl.add_line b);
      Some b
    end
    else None
  in
  let delivered = ref 0 in
  let scale =
    { Runner.nodes; reps = 1; rate; duration; seed = shard_seed }
  in
  let run =
    Runner.run_lo ~scale ~seed:shard_seed ~n:nodes ~malicious
      ~behaviors:(fun i ->
        if malicious.(i) then Node.Silent_censor else Node.Honest)
      ~config:(fun c -> { c with Node.digest_history })
      ~rotate_period:5.0 ~drain ~trace
      ~blocks:(Policy.Lo_fifo, 4.0)
      ~wire:(fun r ->
        (* First content arrival per workload tx, anywhere. *)
        let seen = Hashtbl.create 1024 in
        Array.iter
          (fun node ->
            (Node.hooks node).Node.on_tx_content <-
              (fun tx ->
                if
                  Hashtbl.mem r.Runner.created tx.Tx.id
                  && not (Hashtbl.mem seen tx.Tx.id)
                then begin
                  Hashtbl.add seen tx.Tx.id ();
                  incr delivered
                end))
          r.Runner.deployment.Scenario.nodes)
      ()
  in
  let report = Lo_obs.Audit.finish ~horizon:run.Runner.horizon audit in
  let detections, failures =
    List.partition
      (fun (v : Lo_obs.Audit.violation) -> is_adv v.node)
      report.Lo_obs.Audit.violations
  in
  {
    shard;
    seed = shard_seed;
    nodes;
    adversaries = num_bad;
    events = Lo_obs.Trace.total trace;
    txs = List.length run.Runner.txs;
    delivered = !delivered;
    honest_exposures = !honest_exposures;
    detections = List.length detections;
    failures = List.map Lo_obs.Audit.violation_to_string failures;
    jsonl;
  }

let shard_sizes ~n ~shards =
  let base = n / shards and extra = n mod shards in
  List.init shards (fun i -> base + if i < extra then 1 else 0)

let sweep ?shards ?(malicious_fraction = 0.1) ?(rate = 10.) ?(duration = 5.)
    ?(drain = 30.) ?(digest_history = 16) ?out
    ?(jobs : int option) ~n ~seed () =
  let shards =
    match shards with
    | Some s when s >= 1 -> s
    | Some _ -> invalid_arg "Scale.sweep: shards must be >= 1"
    | None -> Stdlib.max 1 ((n + default_shard_nodes - 1) / default_shard_nodes)
  in
  if n < shards then invalid_arg "Scale.sweep: need at least one node per shard";
  let sizes = shard_sizes ~n ~shards in
  let t0 = Lo_live.Clock.now_s () in
  let reports =
    Parallel.map ?jobs
      (fun (shard, nodes) ->
        run_shard ~shard ~seed ~nodes ~fraction:malicious_fraction ~rate
          ~duration ~drain ~digest_history ~export:(out <> None) ())
      (List.mapi (fun i nodes -> (i, nodes)) sizes)
  in
  let wall_s = Lo_live.Clock.now_s () -. t0 in
  (* Merged export in shard submission order: a pure function of (seed,
     shard count), whatever the domain pool size. *)
  (match out with
  | None -> ()
  | Some oc ->
      List.iter
        (fun (r : shard_report) ->
          match r.jsonl with Some b -> Buffer.output_buffer oc b | None -> ())
        reports);
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  {
    n;
    shards = reports;
    events = sum (fun (r : shard_report) -> r.events);
    txs = sum (fun (r : shard_report) -> r.txs);
    delivered = sum (fun (r : shard_report) -> r.delivered);
    honest_exposures = sum (fun (r : shard_report) -> r.honest_exposures);
    detections = sum (fun (r : shard_report) -> r.detections);
    failures = List.concat_map (fun (r : shard_report) -> r.failures) reports;
    wall_s;
    peak_rss_mb = peak_rss_mb ();
  }
