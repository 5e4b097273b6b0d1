(** The paper's evaluation, experiment by experiment (Sec. 6).

    Every function runs self-contained simulations at a configurable
    (laptop) scale, prints a paper-style table/series via {!Report}, and
    returns the measured numbers so tests and benches can assert on the
    shapes. Absolute values differ from the paper's 10,000-node cluster;
    EXPERIMENTS.md records both. *)

type scale = Runner.scale = {
  nodes : int;
  reps : int;  (** independent repetitions averaged *)
  rate : float;  (** workload, transactions per second *)
  duration : float;  (** workload length, seconds *)
  seed : int;
}

val default_scale : scale
val scaled : ?factor:float -> scale -> scale
(** Multiply node count by [factor] (for quick/full switching). *)

(** {1 Fig. 6 — resilience to malicious miners} *)

type fig6_point = {
  fraction : float;
  suspicion_time : float;  (** avg time for correct nodes to suspect all faulty *)
  suspicion_complete : float;  (** fraction of (correct, faulty) pairs suspected *)
  exposure_spread : float;
      (** time from first exposure to all correct nodes exposing *)
  exposure_complete : float;
}

val fig6 : ?scale:scale -> ?fractions:float list -> unit -> fig6_point list

(** {1 Fig. 7 — mempool inclusion latency} *)

type fig7_result = {
  mean_latency : float;
  p50 : float;
  p95 : float;
  density_edges : (float * float) array;
  density : float array;
  samples : int;
  mean_interactions : float;
      (** average number of reconciliation rounds a node opened between
          a transaction's creation and its arrival — the paper's
          "convergence after interacting with 5 to 6 nodes" *)
}

val fig7 : ?scale:scale -> unit -> fig7_result

(** {1 Fig. 8 — block inclusion latency} *)

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

val fig8_left : ?scale:scale -> unit -> fig8_policy_result list
(** FIFO (LØ) vs Highest-Fee, 12 s blocks. *)

val fig8_right : ?scale:scale -> ?sizes:int list -> unit -> (int * float) list
(** (system size, mean inclusion latency) for the FIFO policy. *)

(** {1 Fig. 9 — bandwidth overhead} *)

type fig9_row = {
  protocol : string;
  overhead_bytes : int;
  overhead_per_node_s : float;
  content_latency : float;  (** mean content-arrival latency, seconds *)
}

val fig9 : ?scale:scale -> unit -> fig9_row list

(** {1 Fig. 10 — reconciliations per minute vs workload} *)

val fig10 : ?scale:scale -> ?rates:float list -> unit -> (float * float) list
(** (tx/s, average sketch reconciliations per node per minute). *)

(** {1 Sec. 6.5 — memory and CPU overhead} *)

type decode_cost = {
  diff : int;
  monolithic_ms : float;
  partitioned_ms : float;
  partition_reconciliations : int;
}

type memcpu_result = {
  decode_costs : decode_cost list;
  commitment_sizes : (float * int) list;  (** (tx/min, digest bytes) *)
  memory_10k_nodes : int;  (** bytes to retain one digest per 10k peers *)
  storage_per_node : int;  (** measured commitment-log bytes after a run *)
}

val memcpu : ?scale:scale -> ?diffs:int list -> unit -> memcpu_result

(** {1 Ablations — the design choices DESIGN.md calls out} *)

type ablation_result = {
  light_overhead : int;  (** LØ overhead bytes with light digests (default) *)
  full_overhead : int;  (** same run shipping the full sketch every message *)
  light_latency : float;
  full_latency : float;
  share_period_exposure : (float * float) list;
      (** digest-share period (s) -> mean time to first network-wide
          exposure of an equivocator *)
}

val ablation : ?scale:scale -> unit -> ablation_result
(** (a) Light vs full digests: how much of Fig. 9's advantage comes from
    the clock-first wire format. (b) Digest-share period vs equivocation
    exposure latency: the cost/latency dial of commitment gossip. *)

(** {1 Trace replay} *)

type replay_result = {
  trace_txs : int;
  trace_duration : float;
  replay_mean_latency : float;
  replay_p95 : float;
  delivered : int;  (** content deliveries (txs x nodes) *)
  audit_violations : int;
      (** {!Lo_obs.Audit} violations over the run's event trace (0 when
          auditing was off) *)
}

val replay :
  ?scale:scale ->
  ?audit:bool ->
  trace:Lo_workload.Trace.record list ->
  unit ->
  replay_result
(** Run the Fig. 7 dissemination measurement on an externally supplied
    transaction trace (the paper replays an Ethereum trace; [lo replay
    --trace FILE] feeds a CSV through this). [audit] additionally
    attaches a {!Lo_obs.Audit} to the run's one-entry trace and prints
    its violations. *)

(** {1 Chaos — fault injection (robustness)} *)

type chaos_cell = {
  churn_rate : float;  (** crashes per second, network-wide *)
  partition_duration : float;  (** seconds each partition window lasts *)
  burst_loss : float;  (** loss rate during loss bursts *)
  crashes : int;  (** crash faults that fired (summed over reps) *)
  restarts : int;
  fault_kinds : int;  (** distinct fault kinds injected (max over reps) *)
  mean_tx_latency : float;
  p95_tx_latency : float;
  reconcile_attempts : int;
  reconcile_completes : int;
  reconcile_success : float;  (** completes / attempts *)
  suspicions : int;  (** suspicion events raised across all nodes *)
  withdrawn : int;  (** suspicion-cleared events (incl. withdrawals) *)
  resolution_rate : float;
      (** fraction of raised suspicions no longer standing at the
          horizon (1.0 when none were raised) *)
  honest_exposures : int;
      (** exposures of honest nodes — the acceptance property demands 0:
          benign faults may be suspected but never blamed (Sec. 4) *)
  audit_violations : int;
      (** {!Lo_obs.Audit} violations summed over the cell's reps (0 when
          auditing was off) *)
}

val chaos :
  ?scale:scale ->
  ?churn_rates:float list ->
  ?partition_durations:float list ->
  ?burst_losses:float list ->
  ?audit:bool ->
  unit ->
  chaos_cell list
(** Sweep churn rate x partition duration x loss-burst intensity (with
    background latency spikes and asymmetric link degradation in every
    cell), all nodes honest, and report latency, reconciliation success,
    and the suspicion/withdrawal/exposure ledger per cell. A value of 0
    disables that fault dimension for the cell. [audit] attaches a
    {!Lo_obs.Audit} to every rep's one-entry trace (tracing never
    perturbs the simulation, so cells are identical with auditing on or
    off). *)

val chaos_rep_audit :
  trace:Lo_obs.Trace.t ->
  scale:scale ->
  churn_rate:float ->
  partition_duration:float ->
  burst_loss:float ->
  rep:int ->
  unit ->
  Lo_obs.Audit.report
(** The audit of one repetition of a {!chaos} cell as
    [chaos ~audit:true] computes it, attached to the fresh [trace]
    ([chaos] passes a one-entry ring). A larger ring lets a caller
    replay the same run through {!Lo_obs.Audit.check_trace} and
    compare. *)

(** {1 Trace — full-run observability} *)

type trace_kind =
  [ `Baseline  (** healthy network with FIFO block production *)
  | `Chaos  (** one mid-intensity fault-injection cell, all honest *)
  | `Adversary
    (** node 0 is a {!Lo_core.Node.Silent_censor}: the audit must fail,
        naming node 0 (suspicions of it can never resolve) *) ]

type trace_run_result = {
  trace : Lo_obs.Trace.t;
  horizon : float;  (** simulated time the run ended at *)
  audit : Lo_obs.Audit.report;
}

val trace_run :
  ?scale:scale -> ?capacity:int -> kind:trace_kind -> unit -> trace_run_result
(** Run one fully traced scenario, print event/flow/phase summaries and
    the verdict of an audit attached before the run, and hand back the
    trace for export ([lo trace] writes it as JSONL). [capacity] bounds
    the event ring, and so only the export (default
    {!Lo_obs.Trace.create}'s); the audit sees every event whatever it
    is. *)
