(** Block building, acceptance and inspection (paper Sec. 4.3 and 5.2).

    Owns the local chain view (blocks by height, head, settled ids),
    builds blocks through {!Policy} with the node's {!Adversary}
    deviation applied, accepts announced blocks, and dispatches the
    inspection that replays the deterministic building rules against the
    creator's commitments — parking inspections that lack digest
    snapshots and retrying them as snapshots arrive. *)

type t

val create :
  adversary:Adversary.t ->
  tracker:Peer_tracker.t ->
  content:Content_sync.t ->
  mempool:Mempool.t ->
  t

val head_hash : t -> string
val chain_height : t -> int
val find_block : t -> height:int -> Block.t option

val build_block : t -> Node_env.t -> policy:Policy.t -> Block.t option
(** Build (and locally accept + announce) a block on the current head
    with the given policy; [None] if the mempool yields no transactions
    and no block was produced. Behaviour modifiers apply here. *)

val accept_block : t -> Node_env.t -> Block.t -> from:int -> unit
(** Handle a {!Messages.Block_announce}: verify, adopt, re-announce and
    inspect — replay the building rules against our view of the
    creator's commitments, expose on provable violations, otherwise
    fetch the digest pairs needed (sampled audit for unverified
    bundles). The block is hashed once here; the hash is what dedups
    repeat announcements and keys a parked inspection. *)

val retry_inspections : t -> Node_env.t -> owner:string -> unit
(** Re-run inspections parked on missing digests of [owner], at most 5
    per block. *)
