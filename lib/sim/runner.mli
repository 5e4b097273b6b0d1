(** The shared experiment harness.

    Every figure follows the same life cycle: build a deployment
    ({!Scenario.build_lo}), wire the measurement, generate and inject a
    workload, optionally rotate neighbours / schedule blocks, drive the
    network to a horizon (workload duration + drain), and read the
    metrics back. {!run_lo} owns that cycle; experiments only supply the
    knobs and folds that differ. Every run carries a trace, and the
    figures are computed from it: byte counts from
    {!Lo_obs.Trace.tag_flows}, event counts from {!Lo_obs.Trace.count},
    and time-resolved quantities from a {!Lo_obs.Trace.observe}
    fold. {!run_baseline} is the equivalent cycle for the non-LØ
    protocols of Fig. 9. *)

type scale = {
  nodes : int;
  reps : int;  (** independent repetitions averaged *)
  rate : float;  (** workload, transactions per second *)
  duration : float;  (** workload length, seconds *)
  seed : int;
}

val default_scale : scale

type workload =
  [ `Poisson  (** {!Lo_core.Deployment.workload} at [rate] for [duration] *)
  | `Trace of Lo_workload.Trace.record list
      (** replay an external trace; duration comes from the trace *) ]

type run = {
  deployment : Scenario.lo_deployment;
  mutable txs : Lo_core.Tx.t list;  (** injected workload transactions *)
  created : (string, float) Hashtbl.t;  (** txid -> creation time *)
  fees : (string, int) Hashtbl.t;  (** txid -> fee *)
  horizon : float;  (** simulated time the run ends at *)
  mutable fault_stats : Lo_net.Fault_plan.stats option;
      (** per-kind counts of faults that actually fired (set when a
          fault plan was given; final once the run returns) *)
  trace : Lo_obs.Trace.t;
      (** the run's measurement ledger: the caller's [trace], or a
          one-entry ring whose aggregates and observer still see every
          event *)
}

val run_lo :
  ?config:(Lo_core.Node.config -> Lo_core.Node.config) ->
  ?behaviors:(int -> Lo_core.Node.behavior) ->
  ?malicious:bool array ->
  ?loss_rate:float ->
  ?faults:Lo_net.Fault_plan.t ->
  ?n:int ->
  ?rate:float ->
  ?duration:float ->
  ?workload:workload ->
  ?workload_seed:int ->
  ?rotate_period:float ->
  ?blocks:Lo_core.Policy.t * float ->
  ?blocks_only_honest:bool ->
  ?drain:float ->
  ?wire:(run -> unit) ->
  ?after_inject:(run -> unit) ->
  ?trace:Lo_obs.Trace.t ->
  scale:scale ->
  seed:int ->
  unit ->
  run
(** One complete LØ run. Stages, in order: build (seeded [seed];
    [n]/[rate]/[duration] default to the scale's), [wire] hooks
    (called before any event executes; [run.created] is still empty but
    the tables are live at event time), inject the workload (filling
    [txs]/[created]/[fees]), [after_inject] (schedule extra events),
    install the fault plan [faults] (if given; stats land in
    [fault_stats]), neighbour rotation every [rotate_period] (if
    given), block production with ([policy], [interval]) (if given;
    [blocks_only_honest] — default [true], matching the paper's
    leader-election model — excludes faulty miners from leadership;
    the conformance fuzzer passes [false] so block-stage adversaries
    actually get to deviate), then [Network.run_until (workload
    duration + drain)] (drain default 20 s).

    [trace] is the sink for the whole life cycle (default: a fresh
    one-entry ring, exposed as [run.trace]): protocol events stream into
    it during the run, and per-stage wall-clock timings are recorded via
    {!Lo_obs.Trace.note_phase} (kept outside the deterministic event
    stream). Only a caller-supplied [trace] gets in-flight messages
    flushed as [In_flight] drops at the horizon, closing the
    bandwidth-conservation books for {!Lo_obs.Audit}. *)

val content_latency_probe :
  ?on_sample:(node:int -> Lo_core.Tx.t -> float -> unit) ->
  Metrics.Stats.t ->
  run ->
  unit
(** Install the standard Fig. 7/9 measurement on every node: add
    [now - created] to the stats for each first content arrival of a
    workload transaction (overwrites [on_tx_content]), and hand each
    recorded sample to [on_sample] with the receiving node's index. Call
    from [wire]. {!run_baseline} records by the same rule. *)

val lo_content_tags : string list
(** Message tags carrying transaction payloads in the LØ protocol;
    everything else is accountable-mempool overhead (Fig. 9). *)

val sent_by_tag : Lo_obs.Trace.t -> (string * int) list
(** Charged payload bytes per message tag, sorted by tag, from the
    trace's wire flows; tags whose every send was refused are left
    out. *)

val overhead : content_tags:string list -> Lo_obs.Trace.t -> int
(** Bytes on the wire minus content-bearing tags ({!lo_content_tags}
    for LØ). *)

(** A protocol instance in a baseline run: how to hand it a client
    transaction, and how to subscribe to first content arrival. *)
type baseline_node = {
  submit : Lo_core.Tx.t -> unit;
  on_content : (Lo_core.Tx.t -> now:float -> unit) -> unit;
}

val baseline_drain : float
(** Seconds (15) a Fig. 9 run is driven past its workload. *)

val run_baseline :
  make:
    (Lo_net.Network.t ->
    Lo_crypto.Signer.scheme ->
    Lo_net.Topology.t ->
    baseline_node list) ->
  scale:scale ->
  seed:int ->
  unit ->
  Lo_obs.Trace.t * Metrics.Stats.t
(** Fig. 9 baseline cycle: paper topology (8 out / 125 in), the same
    Poisson workload as {!run_lo}, content-latency stats on every
    instance, driven {!baseline_drain} past the workload. Returns the
    trace attached to the baselines' network (its aggregates only) and
    the latency stats. *)
