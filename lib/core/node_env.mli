(** Shared node environment: configuration, instrumentation hooks, and
    the service closures the protocol submodules ({!Reconciler},
    {!Content_sync}, {!Peer_tracker}, {!Block_pipeline}) use to talk to
    the network and to each other without depending on the {!Node}
    record. [Node] constructs one {!t} per node and threads it through
    every submodule call. *)

val reconcile_fanout : int
(** Neighbours contacted per NeighborsSync round (paper: 3). *)

val demote_after : int
(** Unresponsiveness score (2) at which a flapping peer stops being
    picked by routine round sampling (it is still probed occasionally
    and can redeem itself — demotion, not blame). *)

val max_delta : int
(** Cap (100) on explicit ids per commit request. *)

val max_digests_per_peer : int
(** Retention bound (1024, about 0.25–1.2 MB/peer) on stored peer
    commitment snapshots; the paper retains everything, which is fine
    for its runs but not for unbounded deployments. Oldest snapshots
    (except seq 0) are evicted beyond the cap. *)

type config = {
  scheme : Lo_crypto.Signer.scheme;
  reconcile_period : float;  (** seconds between NeighborsSync rounds *)
  request_timeout : float;  (** seconds before the first retry (paper: 1 s) *)
  max_retries : int;  (** retries before suspicion (paper: 3) *)
  retry_backoff : float;
      (** multiplier applied to the timeout on each successive retry
          (exponential backoff; 1.0 restores the paper's fixed 1 s) *)
  retry_jitter : float;
      (** seeded uniform perturbation of each retry delay, as a
          fraction of the backed-off delay (desynchronises probes after
          a partition heals) *)
  sketch_capacity : int;
  clock_cells : int;
  fee_threshold : int;
  max_block_txs : int;
  digest_share_period : float;  (** latest-commitment gossip period *)
  always_full_digests : bool;
      (** ablation knob: ship the full sketch in every reconciliation
          message instead of the light digest (default false) *)
  reject_exposed_blocks : bool;
      (** enforcement (Sec. 5.4): refuse blocks whose creator this node
          has exposed. Off by default — the paper keeps inspection
          separate from block validation (Sec. 4.3). *)
  digest_history : int;
      (** how many of our own newest commitment snapshots keep their
          full sketch (the capacity-sized copy each costs); older ones
          are demoted to the light form. Default [max_int] — retain
          everything, the paper's behaviour — because historical full
          digests are served on the wire; scale harnesses opt into a
          small window. *)
}

val default_config : Lo_crypto.Signer.scheme -> config

(** Instrumentation callbacks, for what the event stream cannot carry.

    The trace ({!t.trace}, see {!Lo_obs.Event}) is the one measurement
    channel: suspicion, withdrawal, exposure, reconciliation spans and
    every charged byte are observed by folding its events (via
    {!Lo_obs.Trace.count}, {!Lo_obs.Trace.tag_flows} or an observer),
    never through a hook. Events carry plain data only, so a hook exists
    solely to hand over a protocol object an event cannot: the
    transaction itself, the whole accepted block (appendix included),
    or the inspector's typed violation.

    Hooks fire synchronously from the protocol code path; a consumer
    that needs the time reads the deployment clock (e.g.
    [Lo_net.Network.now], or {!Lo_transport.t.now}), which never
    consumes RNG state, so instrumentation cannot perturb a seeded
    run. *)
type hooks = {
  mutable on_tx_content : Tx.t -> unit;
      (** content entered the mempool (Fig. 7 latency) *)
  mutable on_block_accepted : Block.t -> unit;
      (** a block passed acceptance (Fig. 8 block-inclusion latency;
          [Block_accept] omits the appendix ids) *)
  mutable on_violation : Inspector.violation -> block:Block.t -> unit;
      (** the inspector flagged a block (the typed finding; the
          [Violation] event carries only its label) *)
}

val no_hooks : unit -> hooks

type t = {
  config : config;
  hooks : hooks;
  trace : Lo_obs.Trace.t option;
      (** observability sink (shared with the network engine); every
          protocol event goes through {!emit} *)
  my_id : string;
  my_index : int;
  signer : Lo_crypto.Signer.t;
  rng : Lo_net.Rng.t;  (** the node's single deterministic stream *)
  acc : Accountability.t;
  primary_log : Commitment.Log.t;
  now : unit -> float;
  send : dst:int -> Messages.t -> unit;
  broadcast : Messages.t -> unit;
  schedule : delay:float -> (unit -> unit) -> unit;
  id_of : int -> string;
  index_of : string -> int option;
  population : unit -> int;  (** directory size (audit sampling) *)
  neighbors : unit -> int list;  (** current overlay neighbours *)
  log_for : peer_index:int -> Commitment.Log.t;
      (** the log this node shows to a given peer (equivocators fork) *)
  wire_digest : peer_index:int -> Commitment.digest;
      (** digest used in routine reconciliation messages: light unless
          the ablation knob forces the full form *)
  commit : source:string option -> ids:int list -> unit;
      (** append a learned bundle to the node's commitment log(s) *)
  expose : accused:string -> Evidence.t -> unit;
      (** record + gossip an exposure (deduplicated by the node) *)
  retry_inspections : owner:string -> unit;
      (** re-run inspections parked on missing digests of [owner] *)
  record_deviation : kind:string -> height:int option -> unit;
      (** ground-truth ledger of the node's {e own} adversarial
          deviations (see {!Node.deviations}); honest code paths never
          call it. [height] ties block-stage deviations to the tampered
          block so oracles can match them to honest acceptances. *)
}

val emit : t -> Lo_obs.Event.t -> unit
(** Record an event in the trace at the current time; a no-op without a
    sink. *)
