(** Schnorr signatures over secp256k1 (BIP340-flavoured, simplified).

    Deterministic nonces are derived from the secret key and message, so
    signing needs no entropy source. Signatures are 64 bytes
    (R.x || s); public keys are 33-byte compressed points. *)

type secret_key
type public_key

val keypair_of_seed : string -> secret_key * public_key
(** Derive a keypair deterministically from arbitrary seed bytes (the
    seed is hashed onto the scalar field; a zero result is rejected by
    re-hashing). *)

val public_key : secret_key -> public_key
(** The key the secret key was derived with (kept, not recomputed). *)

val public_key_bytes : public_key -> string
(** 33-byte compressed encoding; doubles as the node identity. Kept with
    the key, so this costs nothing. *)

val public_key_of_bytes : string -> public_key option
(** Decode (one field square root); [None] for malformed encodings,
    off-curve points and infinity. *)

val sign : secret_key -> string -> string
(** [sign sk msg] is a 64-byte signature over [msg]. *)

val verify : public_key -> msg:string -> signature:string -> bool
(** The reference verifier (generic double-and-add, one signature at a
    time). {!batch_verify} is qcheck-pinned against it. *)

val batch_verify :
  (public_key * string * string) array -> [ `All_valid | `Invalid of int list ]
(** [batch_verify sigs] checks an array of [(pk, msg, signature)]
    triples and either declares them all valid or names the invalid
    indices (sorted). Outcome-equivalent to calling {!verify} on each
    triple, but amortised: [s*G - e*P] in one chain of doublings
    against a per-domain comb of [G], one table per public key, and a
    projective x-check with no inversion. The chunks of {!batch_chunk}
    signatures run in order. Within a chunk (and within each bisection
    range) the calling domain first resolves every key's table, in
    index order, so its comb cache and the cache's order are the same
    whatever the host's cores; only then do the checks fan out: split
    into contiguous parts of at least 4 signatures, one per domain
    {!Fanout} can run (the caller and its helpers), and the range
    passes when every part does. Helpers only read the tables and the
    triples. A range too small for two parts, and every range on a
    one-core host, runs in the caller.

    A key's table is, in this order:
    - its comb from the calling domain's comb cache, whatever its uses
      in the chunk;
    - a new Lim-Lee comb (32 doublings per check), added to the cache,
      when the key signs at least {!comb_min_uses} of the chunk's
      signatures;
    - otherwise width-5 wNAF tables on a GLV chain of ~128 doublings,
      built for this chunk only.

    The cache holds at most {!comb_cache_size} combs per domain and
    evicts first in, first out: adding to a full cache drops the comb
    that was added earliest; a hit changes nothing. It is keyed by the
    33-byte encoding, which determines the point, so a cached comb is
    always the key's own.

    Accountability survives batching through bisection: the fast kernel
    only narrows dirty chunks, and an index is blamed only after the
    reference {!verify} confirms it, so a fast-path bug can never frame
    an honest signer. *)

val batch_chunk : int
(** Signatures per kernel chunk (the bisection granularity). *)

val comb_min_uses : int
(** Signatures a key must sign within one chunk to get a comb table
    (8, the break-even between the comb's build cost and its saving
    per check). *)

val comb_cache_size : int
(** Combs kept per domain across calls (32, about 1.6 MB). *)

(**/**)

val kernel_accepts : (public_key * string * string) array -> bool
(** Whether every triple passes the fast kernel alone, tables and comb
    cache as in {!batch_verify}, with no bisection and no reference
    check. {!batch_verify}'s verdicts hide a fast-path bug (it falls
    back to {!verify}); this does not. Exposed for tests. *)

val batch_verify_parts :
  parts:int ->
  (public_key * string * string) array ->
  [ `All_valid | `Invalid of int list ]
(** {!batch_verify} with every kernel range split into [parts] parts
    (at most one per signature), whatever its size and the host's
    cores. Exposed for tests and the bench. *)

val cached_comb_keys : unit -> string list
(** Encodings of the keys in the calling domain's comb cache, oldest
    first. Exposed for tests. *)
