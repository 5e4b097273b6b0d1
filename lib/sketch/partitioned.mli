(** Hash-partitioned set reconciliation — the optimisation of paper
    Sec. 6.5, over GF(2^32) ids.

    Monolithic PinSketch decoding costs grow quadratically with the set
    difference; the paper reports ~10 s for a 1,000-element difference.
    LØ instead splits the id space into partitions when a decode fails
    and reconciles each partition with a fresh small sketch, completing
    the same difference "in under 100 ms". This module implements that
    strategy and accounts for the work performed, which drives Fig. 10
    (reconciliations per minute) and the Sec. 6.5 CPU comparison. Both
    strategies decode with {!Sketch.decode}, the one decoder the
    protocol's reconciler also calls, so the comparison times the
    deployment decoder. *)

type stats = {
  sketches_built : int;  (** total sketches computed on either side *)
  reconciliations : int;  (** sketch exchange round-trips *)
  decode_failures : int;  (** failed decodes that forced a split *)
  bytes_exchanged : int;  (** serialized sketch bytes in both directions *)
  max_depth : int;  (** deepest partition split reached *)
}

val reconcile :
  capacity:int ->
  local:int list ->
  remote:int list ->
  unit ->
  stats * int list
(** Compute the symmetric difference of the two id sets the way two LØ
    nodes would: sketch both sides per partition, merge, decode; on
    decode failure split the partition by the next id bit and retry.
    Returns the recovered difference (unordered) together with the work
    statistics. Elements must be nonzero elements of GF(2^32), the
    one field of the transaction-id sketches. *)

val reconcile_monolithic :
  capacity:int ->
  local:int list ->
  remote:int list ->
  unit ->
  stats * int list option
(** Single large-sketch baseline (no partitioning): the capacity must
    cover the whole difference or decoding fails ([None]). Used by the
    Sec. 6.5 CPU-cost comparison. *)
