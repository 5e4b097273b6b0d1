(** Paper-scale sweeps: fig6-style runs at thousands of nodes, sharded
    into independent worlds and fanned across {!Parallel} domains.

    The paper evaluated LØ on 10,000 emulated nodes; one flat DES world
    at that size is dominated by event-queue pressure and per-node
    state. This harness splits [n] nodes into [shards] closed worlds
    (own network, event queue, RNG, directory, tx pool, trace — shard
    worlds share nothing mutable), runs each with a seeded fraction of
    silent-censor adversaries under neighbour rotation and block
    production, audits every shard's event stream with the five
    invariants as it is emitted ({!Lo_obs.Audit.attach}), and reclassifies violations that name a configured
    adversary as {e detections} (the protocol catching them — the fig6
    point); anything blaming an honest node, plus any honest exposure,
    is a {e failure}.

    Determinism: every shard is seeded from [(seed, shard)] only, and
    results merge in shard submission order, so reports and the merged
    JSONL export are byte-identical whatever [LO_JOBS] says — the
    golden-trace cram test pins exactly that. *)

type shard_report = {
  shard : int;
  seed : int;  (** the shard's derived seed *)
  nodes : int;
  adversaries : int;
  events : int;  (** trace events emitted *)
  txs : int;
  delivered : int;  (** workload txs whose content reached some node *)
  honest_exposures : int;
  detections : int;
  failures : string list;
  jsonl : Buffer.t option;
      (** the shard's JSONL, set only when an export sink was given *)
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
  wall_s : float;  (** host wall clock, whole sweep *)
  peak_rss_mb : float option;
      (** process-wide peak resident set (Linux [VmHWM]); [None] where
          /proc is unavailable *)
}

val ok : report -> bool
(** No failures and no honest exposures (detections are expected). *)

val peak_rss_mb : unit -> float option
(** This process's peak RSS in MB, covering every domain so far. *)

val default_shard_nodes : int
(** 625 — 10k nodes default to 16 shards. Suspicion traffic grows
    roughly with [(shard nodes)^2 * fraction], so smaller shards cost
    superlinearly less CPU and audit state per node; 16 shards still
    saturate a typical 8-core laptop. *)

val sweep :
  ?shards:int ->
  ?malicious_fraction:float ->
  ?rate:float ->
  ?duration:float ->
  ?drain:float ->
  ?digest_history:int ->
  ?out:out_channel ->
  ?jobs:int ->
  n:int ->
  seed:int ->
  unit ->
  report
(** Defaults: shards sized to {!default_shard_nodes}; 10% silent
    censors; 10 tx/s workload per shard for 5 s; 30 s drain (enough for
    retry escalation to raise suspicions and age them past the audit
    grace window); [digest_history] 16 (the memory-lean window — scale
    runs opt in, protocol behaviour at these horizons never reaches
    back further). Each shard's audit is attached to its trace and folds
    the events as they are emitted, so no shard holds its event stream.
    [out] writes the merged JSONL (shard order), which each shard
    buffers in memory until the sweep ends; expect hundreds of MB at
    10k nodes.
    [jobs] overrides the {!Parallel} pool size ([LO_JOBS] otherwise). *)
