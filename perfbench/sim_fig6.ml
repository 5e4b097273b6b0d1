(* Workload sim-fig6: the paper's Fig. 6/7 scenario on one 200-node
   simulated world, driven as [Lo_sim.Runner.run_lo] drives it, on one
   domain, and followed by the replay audit.

   The plain run simulates [runs] workloads drawn from the seed, on the
   same world, and pools their protocol metrics. Its event loop is timed
   a [slice] of simulated time at a time, each slice followed by the
   calibration kernel that rescales it to reference seconds
   ([Stats.speed]).

   The traced variant rebuilds the same deployment from public
   constructors, wraps each node's transport so every delivery, timer and
   send runs inside a span, and drives it with the same sliced loop,
   without the kernel. Its JSONL trace
   must hash the same as a run of [Runner.run_lo] itself: that is the
   proof that neither the wrappers nor the sliced event loop changed the
   work. *)

open Lo_core
module Rng = Lo_net.Rng
module Network = Lo_net.Network
module Signer = Lo_crypto.Signer
module Trace = Lo_obs.Trace
module Scenario = Lo_sim.Scenario

let nodes = 200
let censor_fraction = 0.1
let rate = 50.
let duration = 20.
let drain = 20.
let horizon = duration +. drain
let rotate_period = 5.0
let block_interval = 4.0
let digest_history = 16
let trace_capacity = 2_000_000
let runs = 3
let slice = 0.125

(* Set-ups timed after the runs, besides each run's own. *)
let extra_setups = 6

(* The world (topology, censor placement, node keys, network jitter) is
   fixed; the benchmark seed drives the transaction workloads. *)
let world_seed = 1
let workload_seeds seed = List.init runs (fun k -> (seed * runs) + k)

(* A transaction must reach every honest node within this many
   simulated seconds of its first commit. *)
let latency_limit = 20.0

(* The marking of [Lo_sim.Scale]'s shards: a seeded pick of
   [censor_fraction * nodes] distinct silent censors. *)
let censors =
  let rng = Rng.create (world_seed + 5) in
  let censor = Array.make nodes false in
  let rec mark left =
    if left > 0 then begin
      let i = Rng.int rng nodes in
      if censor.(i) then mark left
      else begin
        censor.(i) <- true;
        mark (left - 1)
      end
    end
  in
  mark (max 1 (int_of_float (censor_fraction *. float_of_int nodes)));
  censor

let behavior censor i = if censor.(i) then Node.Silent_censor else Node.Honest
let config c = { c with Node.digest_history }
let blocks = (Policy.Lo_fifo, block_interval)
let workload ~seed = Scenario.standard_workload ~rate ~duration ~seed ~n:nodes

(* --- driving a deployment, as [Runner.run_lo] does --- *)

(* The steps between build and event loop, in [Runner.run_lo]'s order. *)
let inject d ~seed =
  let txs = Scenario.inject_workload d (workload ~seed) in
  Scenario.rotate_neighbors d ~period:rotate_period ~until:horizon;
  Scenario.schedule_blocks d ~policy:(fst blocks) ~interval:block_interval
    ~until:horizon ();
  txs

(* The event loop to the horizon, [slice] simulated seconds at a time,
   which pops the same events in the same order as one [run_until]; then
   the in-flight drops that close the bandwidth books. With [calibrate],
   each slice is followed by the calibration kernel, and the result is
   the loop's wall and CPU time in reference seconds. *)
let drive ?(calibrate = false) (d : Scenario.lo_deployment) =
  let wall_s = ref 0. and cpu_s = ref 0. in
  for k = 1 to int_of_float (Float.ceil (horizon /. slice)) do
    let w0 = Stats.wall () and c0 = Stats.cpu () in
    Network.run_until d.Scenario.net (Float.min horizon (float_of_int k *. slice));
    if calibrate then begin
      let dw = Stats.wall () -. w0 and dc = Stats.cpu () -. c0 in
      let speed = Stats.speed () in
      wall_s := !wall_s +. (dw *. speed);
      cpu_s := !cpu_s +. (dc *. speed)
    end
  done;
  Network.flush_in_flight d.Scenario.net;
  (!wall_s, !cpu_s)

let build_plain trace =
  Scenario.build_lo ~config ~behaviors:(behavior censors) ~malicious:censors ~trace
    ~n:nodes ~seed:world_seed ()

(* --- correctness gate --- *)

(* The audit may only name configured censors; no honest node may be
   exposed and the trace ring must not have evicted anything. *)
let gate trace (audit : Lo_obs.Audit.report) =
  let is_censor i = i >= 0 && i < nodes && censors.(i) in
  let bad =
    List.filter
      (fun (v : Lo_obs.Audit.violation) -> not (is_censor v.node))
      audit.violations
  in
  List.iter
    (fun v -> Stats.log "sim-fig6: %s" (Lo_obs.Audit.violation_to_string v))
    bad;
  let honest_exposed =
    List.length
      (List.filter
         (fun (_, _, accused) -> not (is_censor accused))
         (Lo_obs.Query.exposures (Trace.events trace)))
  in
  if honest_exposed > 0 then Stats.log "sim-fig6: %d honest exposures" honest_exposed;
  let evicted = Trace.evicted trace in
  if evicted > 0 then Stats.log "sim-fig6: trace ring evicted %d events" evicted;
  bad = [] && honest_exposed = 0 && evicted = 0

let fold ~txs trace =
  let created = Hashtbl.create 2048 in
  List.iter (fun tx -> Hashtbl.replace created (Tx.short_id tx) tx.Tx.created_at) txs;
  Fold.run
    {
      Fold.trace;
      honest = Array.map not censors;
      created;
      limit = latency_limit;
      end_at = horizon;
      workload_s = duration;
    }

(* --- the plain run --- *)

type run = {
  setup_s : float;  (* build + workload injection *)
  wall_s : float;  (* event loop + audit *)
  cpu_s : float;
  ok : bool;  (* the gate *)
  result : Fold.result;
}

(* One plain run from a settled heap, times in reference seconds. *)
let run_plain ~seed =
  let trace = Trace.create ~capacity:trace_capacity () in
  Gc.full_major ();
  let t0 = Stats.wall () in
  let d = build_plain trace in
  let txs = inject d ~seed in
  let setup_s = (Stats.wall () -. t0) *. Stats.speed () in
  let loop_wall, loop_cpu = drive ~calibrate:true d in
  let w0 = Stats.wall () and c0 = Stats.cpu () in
  let audit = Lo_obs.Audit.check_trace ~horizon trace in
  let audit_wall = Stats.wall () -. w0 and audit_cpu = Stats.cpu () -. c0 in
  let speed = Stats.speed () in
  let result = fold ~txs trace in
  Stats.log "sim-fig6: seed %d, %d txs (%d censored at origin), %d events, audit %s" seed
    (List.length txs) result.censored_at_origin result.events
    (Lo_obs.Audit.summary audit);
  {
    setup_s;
    wall_s = loop_wall +. (audit_wall *. speed);
    cpu_s = loop_cpu +. (audit_cpu *. speed);
    ok = gate trace audit;
    result;
  }

(* Build and injection alone, from a settled heap. *)
let setup_only ~seed =
  let trace = Trace.create ~capacity:trace_capacity () in
  Gc.full_major ();
  let t0 = Stats.wall () in
  ignore (inject (build_plain trace) ~seed);
  (Stats.wall () -. t0) *. Stats.speed ()

let end_to_end ~seed =
  let seeds = workload_seeds seed in
  let rs = List.map (fun seed -> run_plain ~seed) seeds in
  let setups =
    List.map (fun r -> r.setup_s) rs
    @ List.init extra_setups (fun _ -> setup_only ~seed:(List.hd seeds))
  in
  let total get = List.fold_left (fun acc r -> acc +. get r) 0. rs in
  let wall_s = total (fun r -> r.wall_s) in
  let r = Fold.pool (List.map (fun r -> r.result) rs) in
  let metrics =
    Stats.
      [
        m "setup_s" "s" (Stats.median (Array.of_list setups));
        m "wall_s" "s" wall_s;
        m "cpu_s" "s" (total (fun r -> r.cpu_s));
      ]
    @ Fold.end_to_end r ~wall_s
  in
  (List.for_all (fun r -> r.ok) rs, r.attempted, r.failed, metrics)

(* --- the traced run --- *)

(* Handler layers, by wire tag. A tag added to [Lo_core.Messages] lands
   in core.other, which BENCHMARK.json does not list, so the traced run
   fails until the tag is mapped here. *)
let layer_of_tag = function
  | "lo:txs" | "lo:submit" | "lo:submit-ack" -> "core.content_sync"
  | "lo:commit-req" | "lo:commit-resp" -> "core.reconciler"
  | "lo:digest" | "lo:digest-req" | "lo:digest-reply" -> "core.peer_tracker"
  | "lo:block" -> "core.block_pipeline"
  | "lo:suspicion" | "lo:withdraw" | "lo:exposure" -> "core.accountability"
  | _ -> "core.other"

let traced_transport spans (tr : Lo_transport.t) =
  let timers = Spans.layer spans "core.timers" in
  let send = Spans.layer spans "net.send" in
  let by_tag = Hashtbl.create 16 in
  let handler_layer tag =
    match Hashtbl.find_opt by_tag tag with
    | Some l -> l
    | None ->
        let l = Spans.layer spans (layer_of_tag tag) in
        Hashtbl.add by_tag tag l;
        l
  in
  {
    tr with
    Lo_transport.send =
      (fun ~dst ~tag payload -> Spans.span spans send (fun () -> tr.send ~dst ~tag payload));
    send_many =
      (fun ~dsts ~tag payload ->
        Spans.span spans send (fun () -> tr.send_many ~dsts ~tag payload));
    schedule =
      (fun ~delay f -> tr.schedule ~delay (fun () -> Spans.span spans timers f));
    subscribe =
      (fun ~proto handler ->
        tr.subscribe ~proto (fun ~from ~tag payload ->
            Spans.span spans (handler_layer tag) (fun () -> handler ~from ~tag payload)));
  }

(* [Scenario.build_lo], step for step, with wrapped transports. *)
let build_traced spans trace =
  let seed = world_seed and censor = censors in
  let scheme = Signer.simulation () in
  let net = Network.create ~loss_rate:0. ~num_nodes:nodes ~seed () in
  Network.set_trace net (Some trace);
  let mux = Lo_net.Mux.create net in
  let signers =
    Array.init nodes (fun i ->
        Signer.make scheme ~seed:(Printf.sprintf "lo-node-%d-%d" seed i))
  in
  let directory = Directory.create ~ids:(Array.map Signer.id signers) in
  let topology =
    Lo_net.Topology.build_with_correct_core
      (Rng.create ((seed * 31) + 7))
      ~malicious:censor ~out_degree:8 ~max_in:125
  in
  let node_config = config (Node.default_config scheme) in
  let tx_pool = Interner.Tx_pool.create () in
  let nodes_ =
    Array.init nodes (fun i ->
        let transport =
          traced_transport spans (Lo_net.Sim_transport.make ~net ~mux ~node:i)
        in
        Node.create ~tx_pool node_config ~transport
          ~rng:(Rng.split (Network.rng net))
          ~directory ~signer:signers.(i)
          ~neighbors:(Lo_net.Topology.neighbors topology i)
          ~behavior:(behavior censor i))
  in
  Array.iter Node.start nodes_;
  let client = Signer.make scheme ~seed:(Printf.sprintf "client-%d" seed) in
  { Scenario.net; mux; nodes = nodes_; directory; scheme; topology; client }

type traced = {
  t_trace : Trace.t;
  t_txs : Tx.t list;
  spans : Spans.t;
  build_s : float;
  inject_s : float;
  run_s : float;  (* event loop to the horizon *)
  audit_s : float;
  t_audit : Lo_obs.Audit.report;
}

let run_traced ~seed =
  let spans = Spans.create () in
  let trace = Trace.create ~capacity:trace_capacity () in
  let t0 = Stats.wall () in
  let d = build_traced spans trace in
  let t1 = Stats.wall () in
  let txs = inject d ~seed in
  let t2 = Stats.wall () in
  (* Spans opened during set-up (start-up sends) are not run time. *)
  Spans.reset spans;
  ignore (drive d);
  let t3 = Stats.wall () in
  let audit = Lo_obs.Audit.check_trace ~horizon trace in
  let t4 = Stats.wall () in
  {
    t_trace = trace;
    t_txs = txs;
    spans;
    build_s = t1 -. t0;
    inject_s = t2 -. t1;
    run_s = t3 -. t2;
    audit_s = t4 -. t3;
    t_audit = audit;
  }

(* A digest of the whole JSONL export, computed a chunk at a time. *)
let jsonl_hash trace =
  let buf = Buffer.create (1 lsl 20) in
  let acc = ref (Digest.string "") in
  let flush () =
    acc := Digest.string (!acc ^ Digest.string (Buffer.contents buf));
    Buffer.clear buf
  in
  List.iter
    (fun e ->
      Buffer.add_string buf (Lo_obs.Jsonl.line e);
      Buffer.add_char buf '\n';
      if Buffer.length buf >= 1 lsl 20 then flush ())
    (Trace.events trace);
  flush ();
  Digest.to_hex !acc

(* [Runner.run_lo] itself on the same scenario: its verdict, trace hash
   and window (event loop + audit). *)
let runner_reference ~seed =
  let trace = Trace.create ~capacity:trace_capacity () in
  Gc.full_major ();
  let scale = { Lo_sim.Runner.nodes; reps = 1; rate; duration; seed = world_seed } in
  let started = ref (Stats.wall ()) in
  let run =
    Lo_sim.Runner.run_lo ~scale ~seed:world_seed ~workload_seed:seed ~n:nodes
      ~malicious:censors ~behaviors:(behavior censors) ~config ~rotate_period ~drain
      ~blocks ~trace
      ~after_inject:(fun _ -> started := Stats.wall ())
      ()
  in
  let audit = Lo_obs.Audit.check_trace ~horizon:run.Lo_sim.Runner.horizon trace in
  let wall_s = Stats.wall () -. !started in
  (gate trace audit, jsonl_hash trace, wall_s)

(* The reference run, in a forked child so that it and the traced run
   both start from a fresh heap; only its verdict, trace hash and window
   come back. *)
let plain_reference ~seed =
  let rd, wr = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* The child never returns into the caller. *)
      let code =
        try
          Unix.close rd;
          let ok, hash, wall_s = runner_reference ~seed in
          let oc = Unix.out_channel_of_descr wr in
          Printf.fprintf oc "%b %s %.17g\n" ok hash wall_s;
          close_out oc;
          0
        with e ->
          Stats.log "sim-fig6: reference run: %s" (Printexc.to_string e);
          1
      in
      flush stderr;
      Unix._exit code
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let line = In_channel.input_all ic in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      try Scanf.sscanf line "%B %s %f" (fun ok hash wall -> (ok, hash, wall))
      with Scanf.Scan_failure _ | Failure _ | End_of_file ->
        Stats.log "sim-fig6: the reference run failed";
        (false, "", Float.nan))

let per_layer ~seed =
  let seed = List.hd (workload_seeds seed) in
  let plain_ok, plain_hash, plain_wall = plain_reference ~seed in
  let t = run_traced ~seed in
  let traced_ok = gate t.t_trace t.t_audit in
  let traced_hash = jsonl_hash t.t_trace in
  let same = String.equal plain_hash traced_hash in
  Stats.log "sim-fig6 traced: reference trace %s, traced trace %s%s" plain_hash
    traced_hash (if same then "" else " (MISMATCH)");
  let r = fold ~txs:t.t_txs t.t_trace in
  let wall_s = t.run_s +. t.audit_s in
  let covered = Spans.total_self_s t.spans in
  let residual = t.run_s -. covered in
  let layer name =
    Stats.
      [
        m (name ^ ".self_s") "s" (Spans.self_s t.spans name);
        m (name ^ ".calls") "count" (float_of_int (Spans.calls t.spans name));
      ]
  in
  let metrics =
    List.concat_map layer
      [
        "core.content_sync"; "core.reconciler"; "core.peer_tracker";
        "core.block_pipeline"; "core.accountability"; "core.timers"; "net.send";
      ]
    @ Stats.
        [
          m "net.loop.self_s" "s" residual;
          m "obs.audit_s" "s" t.audit_s;
          m "sim.build_s" "s" t.build_s;
          m "sim.inject_s" "s" t.inject_s;
          m "trace.wall_s" "s" wall_s;
          m "trace.overhead_s" "s" (wall_s -. plain_wall);
          m "sim.censored_at_origin" "count" (float_of_int r.censored_at_origin);
        ]
    @ Fold.per_layer r t.t_trace
    @ if Spans.calls t.spans "core.other" > 0 then layer "core.other" else []
  in
  (plain_ok && traced_ok && same, r.attempted, r.failed, metrics)
