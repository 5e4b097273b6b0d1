(** Binary SHA-256 Merkle trees with inclusion proofs.

    Used for compact commitments over transaction bundles: a miner can
    later reveal any committed transaction together with a logarithmic
    proof of membership. Leaves and internal nodes are domain-separated
    to prevent second-preimage tricks.

    No protocol path uses it yet, so it lives beside its tests; it moves
    back into [lo_crypto] when commitment-log compaction summarises
    pruned prefixes by Merkle root. *)

type direction = Left | Right
(** Side on which the sibling hash sits at each level (bottom-up). *)

type proof = { leaf_index : int; path : (direction * string) list }

val leaf_hash : string -> string
val root : string list -> string
(** Root over the list of leaf payloads. The empty list hashes a fixed
    sentinel. An odd node at any level is paired with itself. *)

val proof : string list -> int -> proof
(** Inclusion proof for the [i]-th leaf. @raise Invalid_argument if the
    index is out of range. *)

val verify : root:string -> leaf:string -> proof -> bool
