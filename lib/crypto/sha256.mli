(** SHA-256 (FIPS 180-4), implemented from scratch on native integers.

    Digests are returned as raw 32-byte strings; use {!Hex.encode} for a
    printable form. The incremental interface hashes arbitrarily long
    inputs fed in chunks.

    The compressor takes every rotation from a doubled word: for a
    32-bit [x] held in a 63-bit int, bits [n..n+31] of
    [x lor (x lsl 32)] are [rotr x n] whenever [1 <= n <= 31]. SHA-256
    never rotates by more than 25, so each Σ/σ is one doubling and
    three shifts. [test/sha256_ref.ml] keeps the textbook kernel as the
    test oracle. *)

type ctx
(** Mutable hashing context. *)

val init : unit -> ctx
(** Fresh context for an empty message. *)

val copy : ctx -> ctx
(** Independent snapshot of a context: feeding or finalizing the copy
    leaves the original untouched. The basis of HMAC midstate caching
    ({!Hmac.Keyed}). *)

val feed : ctx -> string -> unit
(** [feed ctx s] absorbs all bytes of [s]. *)

val feed_bytes : ctx -> bytes -> int -> int -> unit
(** [feed_bytes ctx b off len] absorbs [len] bytes of [b] from [off]. *)

val finalize : ctx -> string
(** Pads and returns the 32-byte digest. The context must not be reused. *)

val digest : string -> string
(** One-shot digest of a string. *)

val digest_list : string list -> string
(** Digest of the concatenation of the given strings (no extra copies of
    the whole message are made). *)

val hash_to_int : string -> int
(** The first 8 bytes of [digest s] read as a big-endian integer,
    reduced to its low 62 bits: a non-negative OCaml [int], and a
    cheap, stable content fingerprint used for hash-partitioning
    ([Lo_net.Latency] derives link latencies from it). *)
