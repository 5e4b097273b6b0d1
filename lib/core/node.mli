(** A full LØ node over any {!Lo_transport} backend.

    A thin façade: identity, commitment log(s), message dispatch and
    timers live here, while the protocol logic is layered into
    {!Reconciler} (Alg. 1 mempool reconciliation with pairwise
    commitments), {!Content_sync} (Stage II content exchange),
    {!Peer_tracker} (commitment snapshots and equivocation detection,
    Sec. 5), {!Block_pipeline} (verifiable block building of Sec. 4.3)
    and {!Adversary} (the faulty behaviours used in the evaluation,
    selected per node via {!behavior}). The types below re-export the
    submodule definitions, so existing callers are unaffected. *)

type behavior = Adversary.t =
  | Honest
  | Silent_censor
      (** never answers protocol requests (Fig. 6's censoring faulty
          miner) *)
  | Tx_censor of (Tx.t -> bool)
      (** drops matching transactions at submission and content
          reception (Stage I/II censorship) *)
  | Block_injector
      (** smuggles its own uncommitted transactions into the middle of
          committed bundles *)
  | Block_reorderer
      (** orders transactions inside bundles by fee instead of the
          canonical shuffle *)
  | Blockspace_censor of (Tx.t -> bool)
      (** silently omits matching transactions from its blocks *)
  | Equivocator
      (** maintains a forked commitment log and shows different forks to
          different peers *)

type config = Node_env.config = {
  scheme : Lo_crypto.Signer.scheme;
  reconcile_period : float;  (** seconds between NeighborsSync rounds *)
  request_timeout : float;  (** seconds before the first retry (paper: 1 s) *)
  max_retries : int;  (** retries before suspicion (paper: 3) *)
  retry_backoff : float;
      (** per-retry timeout multiplier (exponential backoff; 1.0
          restores the paper's fixed interval) *)
  retry_jitter : float;
      (** seeded uniform perturbation of each retry delay (fraction) *)
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

type hooks = Node_env.hooks = {
  mutable on_tx_content : Tx.t -> unit;
      (** content entered the mempool (Fig. 7 latency) *)
  mutable on_block_accepted : Block.t -> unit;
  mutable on_violation : Inspector.violation -> block:Block.t -> unit;
}
(** See {!Node_env.hooks}: suspicion, exposure and reconciliation are
    observed through the trace events, not through hooks. *)

type t

val create :
  ?tx_pool:Interner.Tx_pool.t ->
  config ->
  transport:Lo_transport.t ->
  rng:Lo_net.Rng.t ->
  directory:Directory.t ->
  signer:Lo_crypto.Signer.t ->
  neighbors:int list ->
  behavior:behavior ->
  t
(** The node's index is [transport.self]. [rng] is the node's single
    deterministic stream; under the DES backend pass a
    [Rng.split] of the engine's root generator so seeded runs stay
    reproducible, under the live backend any per-node seed works.
    [tx_pool] — a per-world pool shared by all nodes of a deployment.
    {!handle_message} then decodes each wire transaction once per world
    (every mempool retains that one instance), and the commitment logs
    take each id's syndrome powers from it. Signatures are still
    checked on every delivery. Omit it (live nodes do) to keep
    instances private. *)

val start : t -> unit
(** Register handlers (including the network restart handler driving
    the crash-recovery path) and schedule the periodic reconciliation
    and digest-share timers (staggered by a random offset). *)

val handle_message : t -> from:int -> tag:string -> Lo_codec.Reader.t -> unit
(** The subscription handler {!start} registers, and a node's only way
    in for both backends: decode one wire message from the reader and
    dispatch it. A [Tx_batch] goes through {!Content_sync.ingest_batch},
    which commits the frame's fresh ids as one bundle. Malformed input
    is contained: the message is dropped and counted as a
    {!Lo_obs.Event.Malformed} trace event. The reader may be a view
    into a receive buffer; it is not kept past the call. *)

val handle_restart : t -> unit
(** The recovery path, run via the transport's restart handler (the DES
    backend wires it to {!Lo_net.Network.restart}):
    re-announce the commitment head, request missed peer snapshots, and
    restart reconciliation from the persisted log position. Exposed for
    tests and manual fault scripts. *)

val index : t -> int
val node_id : t -> string
val behavior : t -> behavior
val hooks : t -> hooks
val mempool : t -> Mempool.t
val commitment_log : t -> Commitment.Log.t
val accountability : t -> Accountability.t
val neighbors : t -> int list
val set_neighbors : t -> int list -> unit

val submit_tx : t -> Tx.t -> unit
(** Local client submission (Stage I). *)

val build_block : t -> policy:Policy.t -> Block.t option
(** Build (and locally accept + announce) a block on the current head
    with the given policy; [None] if the mempool yields no transactions
    and no block was produced. Behaviour modifiers apply here. *)

val chain_height : t -> int
val find_block : t -> height:int -> Block.t option

val known_digest : t -> peer:string -> Commitment.digest option
(** Latest stored commitment digest of a peer. *)

val digest_snapshots : t -> (string * int * Commitment.digest) list
(** Every peer commitment snapshot this node retains, as
    [(owner id, seq, digest)] sorted by owner then seq — the raw
    material for the cross-node prefix-agreement oracle of [Lo_check]. *)

val commitment_storage_bytes : t -> int
(** Bytes of peer commitment digests currently retained (Sec. 6.5
    memory metric; own log excluded). *)

val missing_content_count : t -> int

val deviations : t -> (float * string * int option) list
(** Ground-truth log of this node's own adversarial deviations, sorted
    by time: [(first time, kind, block height)]. Kinds: ["silent-drop"]
    (ignored a commit request), ["censor-tx"] / ["censor-content"]
    (Stage I/II censorship), ["equivocate"] (the fork diverged),
    ["block-inject"] / ["block-reorder"] / ["block-censor"] (the block
    at [height] was tampered with). Deduplicated by (kind, height);
    always empty for honest nodes. Feeds the detection-completeness
    oracle of [Lo_check] — every entry is a deviation the protocol
    should eventually suspect or expose. *)

val ack_signing_bytes : txid:string -> string
(** Bytes a miner signs when acknowledging a submission (Stage I); used
    by {!Client} to verify receipts. *)
