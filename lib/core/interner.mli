(** Per-world interning: one retained instance per value, shared by
    every node of a deployment.

    At 10,000 nodes the same 32-byte tx ids and 33-byte signer ids are
    decoded from the wire over and over, each decode a fresh string —
    the dominant share of minor-heap churn in a sweep. An {!t} maps
    strings to dense insertion-ordered ints and back, handing out the
    single retained copy. {!Tx_pool} goes further for whole
    transactions: each wire encoding is decoded once per world, and
    each short id's syndrome powers are computed once while it spreads.

    Interning only substitutes an equal value for an equal value, so it
    cannot change a trace byte; [test/test_scale.ml] pins the string
    interner (insert/lookup/iteration order against a naive reference)
    and [test/test_core_types.ml] pins {!Tx_pool} against {!Tx.decode}
    and {!Lo_sketch.Sketch.add_all}. *)

type t

val create : ?initial:int -> unit -> t
val intern : t -> string -> int
(** Dense id of [s], assigned in first-seen order starting at 0. *)

val find : t -> string -> int option
val to_string : t -> int -> string
(** @raise Invalid_argument on an id never handed out. *)

val size : t -> int

(** A world's transactions, decoded once: the pure values every node
    would otherwise derive again for the same transaction.

    - {b Decode by wire bytes.} {!decode} keys a transaction by its exact
      wire span. A span seen before returns the instance decoded then,
      without hashing the id again or copying a field out (the key
      itself is one copy of the span); a new span is decoded by
      {!Tx.decode} and registered. Entries are never evicted:
      the pool holds one record per distinct encoding the world carries.
    - {b Syndrome powers.} {!sketch_add_all} adds ids to a sketch from
      cached vectors of each id's first [power_capacity] (250) odd
      powers, the sketch capacity of a deployment. At most
      [power_slots] (1,024) vectors are kept, about 2 MB; the oldest
      computed is replaced first (FIFO, a hit does not refresh it).

    Both are pure functions of their key, so pooling changes no decoded
    field, sketch, digest or trace byte; no check is memoised: a node
    still verifies every signature it is handed.

    A pool is mutable and unsynchronised: one world, on one domain, per
    pool. *)
module Tx_pool : sig
  type t

  val create : ?initial:int -> unit -> t
  (** An empty pool; [initial] sizes the decode table. *)

  val decode : t -> Lo_codec.Reader.t -> Tx.t
  (** {!Tx.decode} through the pool: the same fields, the same reader
      position after it, and [Malformed] on exactly the same inputs
      (the framing is checked by {!Tx.skip} before the lookup). *)

  val sketch_add_all : t -> Lo_sketch.Sketch.t -> int list -> unit
  (** {!Lo_sketch.Sketch.add_all} through the cached power vectors: the
      same syndromes, by xor only on a hit. A sketch of capacity above
      250 takes {!Lo_sketch.Sketch.add_all} itself.
      @raise Invalid_argument on an id that is 0 or above 2^32 - 1, as
      {!Lo_sketch.Sketch.add_all} does (ids before it may have been
      added). *)

  type stats = {
    decode_hits : int;
    decode_misses : int;
    power_hits : int;
    power_misses : int;
  }

  val stats : t -> stats
  (** Lookups so far that found, or had to compute, their value. *)
end
