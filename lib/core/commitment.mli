(** Mempool commitments — the heart of LØ (paper Sec. 4.2).

    A miner's commitment is an append-only record of every (short)
    transaction id it has accepted, in bundle order. On the wire a
    commitment travels as a compact signed {!digest}: the owner's
    identity, a bundle sequence number, the total id count, a Bloom
    clock and a PinSketch of the full id set. Consecutive digests from
    the same owner must be consistent extensions of one another; any
    signed pair violating that is cryptographic proof of equivocation or
    withholding.

    The {!Log} sub-module is the owner side: it appends bundles, keeps
    the committed-id index, and signs fresh digests. It stores each
    committed id once, in one commitment-order array (a bundle is a
    range of it), and each signed digest once, in one array indexed by
    seq. *)

type digest = {
  owner : string;  (** 33-byte signer identity *)
  seq : int;  (** number of bundles committed so far *)
  counter : int;  (** number of short ids committed so far *)
  clock : Lo_bloom.Bloom_clock.t;
  sketch_hash : string;  (** SHA-256 of the serialized sketch *)
  sketch : Lo_sketch.Sketch.t option;
      (** [None] in the "light" form used by routine reconciliation —
          the Bloom clock drives the common path, as in Sec. 4.2; the
          full sketch travels periodically and on demand. The signature
          covers the sketch through [sketch_hash], so light and full
          forms of the same commitment verify identically. *)
  signature : string;
}

val default_sketch_capacity : int
(** 250 syndromes — 1,000 bytes of sketch, the paper's parameter
    ("sufficient to reconcile a set difference of up to 100
    transactions" leaves headroom; we expose the capacity directly). *)

val default_clock_cells : int
(** 32 cells, the paper's Bloom-clock size. *)

val encode : Lo_codec.Writer.t -> digest -> unit
val decode : Lo_codec.Reader.t -> digest
val encoded_size : digest -> int

val signing_bytes : digest -> string
(** The bytes covered by the signature (everything but the signature). *)

val verify : Lo_crypto.Signer.scheme -> digest -> bool
(** Checks the signature, and — for a full digest — that the carried
    sketch matches [sketch_hash]. *)

val strip_sketch : digest -> digest
(** The light form (drops the sketch; hash and signature unchanged). *)

val is_full : digest -> bool

val equal_content : digest -> digest -> bool
(** Same owner, seq, counter, clock and sketch hash (signature and
    light/full form excluded). *)

type consistency =
  | Consistent of int list
      (** [newer] extends [older]; the list holds the short ids added in
          between (decoded from the sketches), unordered. *)
  | Plausible
      (** Cheap checks (counter growth, clock dominance) passed, but at
          least one digest is light so the sets were not compared. *)
  | Inconsistent
      (** Signed proof of misbehaviour when both digests verify. *)
  | Inconclusive
      (** The sketch difference exceeded capacity; fetch the explicit
          delta before judging. *)

val sketch_difference :
  estimate:int ->
  Lo_sketch.Sketch.t ->
  Lo_sketch.Sketch.t ->
  (int list, [ `Decode_failure ]) result
(** The decoded symmetric difference of two same-shape sketches. Both
    are truncated to [min capacity (estimate + 8)] and merged, and that
    cheap prefix is decoded first; on failure the full sketches are
    merged and decoded. [estimate] is the Bloom clocks' difference
    estimate, exact for an honest extension. Otherwise it can fall
    short of the true difference, and a decode beyond the truncated
    capacity can then return a wrong set with the same syndromes, which
    {!accounts_for} rejects. *)

val accounts_for :
  mine:Lo_bloom.Bloom_clock.t ->
  peer:Lo_bloom.Bloom_clock.t ->
  held:(int -> bool) ->
  int list ->
  bool
(** [accounts_for ~mine ~peer ~held diff]: whether [peer] is [mine]
    with the ids of [diff] that [held] accepts taken out and the others
    put in, cell by cell, counters compared as the wire carries them
    (capped at {!Lo_bloom.Bloom_clock.max_counter}). The true
    difference always passes; a wrong decode almost never does. Both
    clocks have the same number of cells. *)

val check_extension :
  ?max_decode:int -> older:digest -> newer:digest -> unit -> consistency
(** Precondition: same owner; [older.seq <= newer.seq]. The Bloom clock
    is compared first (cheap, works on light digests), then — when both
    sketches are present — the sketch difference is decoded and its
    cardinality checked against the counters, as described in Sec. 4.2
    ("Implementation Details"). The clock's difference estimate guides a
    truncated (cheap) decode first; when the estimate exceeds
    [max_decode] the set comparison is skipped and the cheap verdict
    [Plausible] is returned (full audits of distant snapshots are
    sampled by the caller instead of paid on every message). *)

(** Owner-side commitment log. *)
module Log : sig
  type t

  type bundle = {
    seq : int;  (** 1-based bundle number *)
    ids : int list;  (** short ids in arrival order *)
  }

  val create :
    ?sketch_capacity:int ->
    ?clock_cells:int ->
    ?digest_history:int ->
    ?tx_pool:Interner.Tx_pool.t ->
    signer:Lo_crypto.Signer.t ->
    unit ->
    t
  (** [digest_history] bounds how many of the newest snapshots keep
      their full sketch (a capacity-sized copy each — the dominant
      per-snapshot memory at 10k nodes); older ones are demoted to the
      light form, which still signature-verifies identically. Defaults
      to [max_int] (every sketch retained — full historical digests are
      served on the wire, so bounding is an explicit opt-in of scale
      harnesses). Must be [>= 1].

      [tx_pool] (a simulated world's shared pool) adds appended ids to
      the sketch from the pool's cached syndrome powers
      ({!Interner.Tx_pool.sketch_add_all}) instead of computing them;
      every sketch and digest is the same. *)

  val owner : t -> string
  val contains : t -> int -> bool
  val counter : t -> int
  val seq : t -> int

  val append : t -> source:string option -> ids:int list -> digest option
  (** Commit a bundle of previously unknown short ids, in the given
      order (duplicates and already-known ids are dropped). Returns the
      fresh signed digest, or [None] if nothing new remained. [source]
      (the peer the bundle was learned from) is not kept. *)

  val current_digest : t -> digest
  (** Full form (sketch included). *)

  val current_digest_light : t -> digest

  val digest_at : t -> seq:int -> digest option
  (** Historical snapshot (all digests are retained, Sec. 5.2; beyond
      [digest_history] only in light form). *)

  val bundles : t -> bundle list
  (** In commitment order. *)

  val newest_bundle : t -> bundle option
  (** The last bundle committed: after an {!append} that returned
      [Some _], the ids that append kept, in order. *)

  val oldest : t -> int -> int list
  (** [oldest t n]: the first [n] committed ids in commitment order
      (none for [n <= 0]), in O(n) however long the log. *)

  val newest : t -> int -> int list
  (** [newest t n]: the last [n] committed ids, newest first, in
      O(n). *)

  val newest_in_cells : t -> int list -> int -> int list
  (** [newest_in_cells t cells n]: the first [n] committed ids that map
      to the Bloom-clock cells [cells] (out-of-range cells map none) —
      the clock-guided delta, newest first within the last cell of
      [cells], then the cell before it, and so on. Walks at most [n]
      ids. *)
end
