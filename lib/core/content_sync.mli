(** Transaction-content exchange (Stage II of Alg. 1).

    Owns the table of committed-but-uncontented short ids (the
    [missing] set), answers [want] lists, serves and ingests
    {!Messages.Tx_batch}es, and centralises the "commit fresh ids and
    mark their content missing" step that every reconciliation path
    performs (Alg. 1 line 22). *)

type t

val create : mempool:Mempool.t -> adversary:Adversary.t -> unit -> t

val missing_count : t -> int
(** Committed ids whose content has not arrived yet. *)

val want_list : t -> int list
(** Up to {!Node_env.max_delta} missing ids to request from a peer. *)

val commit_fresh :
  t ->
  Node_env.t ->
  dedup:bool ->
  known:(int -> bool) ->
  source:string ->
  int list ->
  int list
(** Filter [ids] down to those not [known], optionally sort/dedup them,
    commit the survivors as one bundle attributed to [source] and mark
    those whose content is not in the mempool missing. Returns the
    committed ids ([[]] when none were fresh). The [known] predicate is
    caller-supplied because the paths differ: requests test the
    (possibly forked) log shown to the peer, responses test the primary
    log. *)

val serve : t -> int list -> Tx.t list
(** The requested transactions we can actually supply. *)

val store_content : t -> Node_env.t -> Tx.t -> from_peer:string option -> unit
(** Admit content to the mempool, clear it from the missing set and
    fire [on_tx_content] (first arrival only). *)

val ingest_batch : t -> Node_env.t -> from:int -> Tx.t list -> unit
(** Handle a {!Messages.Tx_batch} from peer [from] through
    {!Mempool.ingest_batch}: bounds checks, one
    {!Lo_crypto.Signer.verify_many} over the frame, the Stage-II
    censorship filter, and an in-batch dedup. The ids neither committed
    nor repeated are committed in batch order as one bundle (a single
    digest update), then the new content is stored. In honest runs
    there are none: a peer sends content only for ids the receiver
    asked for, which a reconciliation delta has already committed. *)
