(** Assembly of simulated deployments.

    Builds the network and protocol instances for an experiment over the
    world {!Lo_core.Deployment} derives from the seed (identities,
    8 outbound / 125 inbound overlay, client key, Poisson workload),
    mirroring the paper's setup (Sec. 6.1): reconciliation with 3
    random neighbours per second, 1 s request timeout with 3 retries,
    and 32-city latencies with round-robin assignment. *)

type lo_deployment = {
  net : Lo_net.Network.t;
  mux : Lo_net.Mux.t;
  nodes : Lo_core.Node.t array;
  directory : Lo_core.Directory.t;
  scheme : Lo_crypto.Signer.scheme;
  topology : Lo_net.Topology.t;
  client : Lo_crypto.Signer.t;  (** signer used for workload transactions *)
}

val build_lo :
  ?config:(Lo_core.Node.config -> Lo_core.Node.config) ->
  ?behaviors:(int -> Lo_core.Node.behavior) ->
  ?malicious:bool array ->
  ?loss_rate:float ->
  ?trace:Lo_obs.Trace.t ->
  n:int ->
  seed:int ->
  unit ->
  lo_deployment
(** [malicious] (when given) marks nodes whose edges are laid so the
    correct subgraph stays connected (see {!Lo_core.Deployment.topology}),
    as in the Sec. 6.2 experiments. [config] tweaks the
    default node configuration. [trace] attaches an observability sink
    before any protocol instance is created; tracing never perturbs the
    run (see {!Lo_net.Network.set_trace}). *)

val inject_workload :
  lo_deployment -> Lo_workload.Tx_gen.spec list -> Lo_core.Tx.t list
(** Schedule each spec's transaction for submission at its origin node
    at its creation time. Returns the created transactions (ids are the
    latency keys). *)

val schedule_blocks :
  lo_deployment ->
  policy:Lo_core.Policy.t ->
  interval:float ->
  until:float ->
  ?only_honest:bool ->
  unit ->
  unit
(** Every [interval] seconds a uniformly random miner (optionally only
    honest ones) builds and announces a block — the paper's model of
    leader election (Stage IV). *)

val rotate_neighbors : lo_deployment -> period:float -> until:float -> unit
(** The paper's "continuous sampling" (Sec. 3): every [period] seconds
    each node replaces its overlay neighbours with a fresh uniform
    sample (8 peers, excluding itself and peers it has exposed),
    modelling the Byzantine-resilient sampler the paper presumes. *)

val attach_gossip_sampler :
  lo_deployment -> ?period:float -> until:float -> unit -> Lo_net.Peer_sampler.t
(** The non-idealised variant: run the Brahms-style gossip sampler on
    the same simulated nodes (it shares each node via the message mux)
    and refresh every node's LØ neighbour set from its converged sampler
    outputs every [period] (default 5 s). This closes the loop of the
    paper's architecture — bootstrap topology → byzantine-resilient
    sampling → reconciliation overlay. *)

val standard_workload :
  rate:float -> duration:float -> seed:int -> n:int -> Lo_workload.Tx_gen.spec list
(** {!Lo_core.Deployment.workload}. *)

val apply_fault_plan :
  lo_deployment -> Lo_net.Fault_plan.t -> Lo_net.Fault_plan.stats
(** Compile a declarative fault schedule onto the deployment's event
    queue (see {!Lo_net.Fault_plan}); the returned stats fill in as
    faults fire during the run. *)
