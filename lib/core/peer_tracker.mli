(** Per-peer commitment bookkeeping and equivocation detection
    (Sec. 5.2, Fig. 4).

    Stores the verified digest snapshots a peer has shown us, derives
    bundle contents from adjacent full digests, cross-checks each new
    snapshot against its stored neighbours ([check_extension]) and
    hands conflicting pairs to the exposure machinery. Also keeps the
    ring buffer of recently seen third-party digests used for
    transitive commitment gossip.

    Each peer's snapshots live in one map ordered by seq. A new
    snapshot's neighbours are the nearest stored seqs below and above
    it; its latest is the largest seq. Retention: a snapshot is stored
    only if it is consistent with both neighbours, a stored snapshot is
    replaced only by the full form of the same content, and once a peer
    has more than {!Node_env.max_digests_per_peer} snapshots the one
    with the smallest seq above 0 is dropped (seq 0 anchors evidence
    about the first bundle). Only directory members
    ({!Node_env.t.index_of}) are tracked: a digest, declaration or
    request naming anyone else is ignored and stores nothing. *)

type t

val create : unit -> t

val latest : t -> peer:string -> Commitment.digest option
(** The newest stored digest of [peer], if any. *)

val digest_pair :
  t -> owner:string -> seq:int -> (Commitment.digest * Commitment.digest) option
(** The full-form [(seq-1, seq)] snapshot pair — the evidence base for
    bundle violations. *)

val bundle_of_seq : t -> owner:string -> seq:int -> int list option
(** The owner's committed bundle at [seq], as reconstructed from its
    signed digests (or self-declared, pending verification). *)

val note_digest : t -> Node_env.t -> Commitment.digest -> unit
(** Verify, store and cross-check a digest snapshot; exposes the owner
    on conflict, triggers [retry_inspections] on progress. *)

val note_appended :
  t -> Node_env.t -> owner:string -> seq:int -> int list -> unit
(** Record a peer's self-declared newest bundle. The declaration is
    only used to steer inspection; any exposure still requires signed
    digest evidence, so a lying peer can at worst waste an audit. *)

val handle_digest_request :
  t -> Node_env.t -> from:int -> owner:string -> seq:int -> unit
(** Serve a {!Messages.Digest_request} from our own log or the stored
    snapshots of a third party; stores nothing. *)

val snapshots : t -> (string * int * Commitment.digest) list
(** Every stored digest snapshot, as [(owner, seq, digest)] sorted by
    owner then seq — the raw material for the cross-node
    commitment-prefix-agreement oracle: two correct nodes may never hold
    content-different snapshots of the same honest owner and seq. *)

val recent_digests : t -> exclude_owner:string -> Commitment.digest list
(** Recently received third-party digests (for transitive gossip),
    excluding those owned by the target peer. *)

val storage_bytes : t -> int
(** Bytes of peer commitment digests currently retained (Sec. 6.5
    memory metric; own log excluded). *)
