(** Node-local transaction store.

    Holds the content of every valid transaction a node has ever seen
    (LØ's "Inclusion of All Transactions" policy makes the store
    append-only), indexed by short id, together with reception
    metadata. *)

type entry = {
  tx : Tx.t;
  short_id : int;
  received_at : float;
  from_peer : string option;  (** None when submitted directly (Stage I) *)
}

type t

val create : ?initial_capacity:int -> unit -> t
(** [initial_capacity] pre-sizes the internal tables (default 512).
    Pass the expected transaction count when it is known up front —
    sustained ingest at six-figure tx/s otherwise spends a measurable
    slice of its budget rehashing through the doubling ladder. *)

val size : t -> int

val add :
  t -> tx:Tx.t -> received_at:float -> from_peer:string option ->
  [ `Added of entry | `Duplicate ]
(** [`Duplicate] covers both a repeated transaction and the (negligible
    but handled) short-id collision with a different transaction. *)

type batch_result = {
  accepted : entry list;  (** newly stored, in batch order *)
  invalid : (int * string) list;  (** input index and reason, ascending *)
  duplicates : int;  (** valid but already stored *)
  committed : int list;
      (** the fresh short ids handed to [commit], in batch order *)
}

val ingest_batch :
  ?keep:(Tx.t -> bool) ->
  scheme:Lo_crypto.Signer.scheme ->
  known:(int -> bool) ->
  commit:(int list -> unit) ->
  received_at:float ->
  from_peer:string option ->
  t ->
  Tx.t list ->
  batch_result
(** Batched admission (the throughput tier): bounds-check every
    transaction, verify all surviving signatures in one
    {!Lo_crypto.Signer.verify_many} call, store the valid ones, and
    call [commit] ONCE with every short id that is neither [known]
    (already committed) nor repeated in the batch — one commitment
    bundle, one digest update, per batch.

    [keep] is the censorship filter applied after validation (default:
    keep all). Per-transaction outcomes — which transactions are stored, rejected
    or duplicate, and which ids reach the commitment log — match the
    iterated single-transaction path exactly; qcheck pins the
    equivalence including the final mempool state and digest. *)

val mem_short : t -> int -> bool
val find_short : t -> int -> entry option
val find_id : t -> string -> entry option
val entries_in_arrival_order : t -> entry list
val total_payload_bytes : t -> int
(** Cumulative stored transaction bytes (storage-overhead metric). *)
