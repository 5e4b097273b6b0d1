(** Pluggable signing backends.

    All protocol code signs and verifies through this interface, so the
    same node logic can run with real Schnorr signatures (tests,
    examples) or with a fast HMAC-based simulation signer (large-scale
    experiments). Both backends produce 33-byte identities and 64-byte
    signatures so that bandwidth accounting is identical. *)

type t
(** A signing identity: a public id plus the ability to sign. *)

type scheme
(** A signature scheme: creates signers and verifies signatures. *)

val id : t -> string
(** The 33-byte public identity (public key bytes). *)

val sign : t -> string -> string
(** 64-byte signature over a message. *)

val make : scheme -> seed:string -> t
(** Deterministically derive a signer from seed bytes. *)

val verify : scheme -> id:string -> msg:string -> signature:string -> bool

val verify_many : scheme -> (string * string * string) array -> int list
(** [verify_many scheme sigs] checks an array of [(id, msg, signature)]
    triples and returns the indices that fail (sorted; [[]] means all
    valid). Outcome-equivalent to calling {!verify} per triple, but
    batched: Schnorr goes through {!Schnorr.batch_verify} (amortised
    point arithmetic, bisection accountability), the simulation scheme
    through its per-signer HMAC midstate cache. *)

val schnorr : scheme
(** Real Schnorr over secp256k1; anyone can verify from the id alone. *)

val simulation : unit -> scheme
(** Fast HMAC-SHA256 backend for simulations. Verification consults a
    process-local registry populated at signer creation, so it only
    works inside one simulation run — never across processes and never
    for adversarial settings outside controlled experiments. *)

val id_size : int
(** 33 bytes, both schemes. *)

val signature_size : int
(** 64 bytes, both schemes. *)
