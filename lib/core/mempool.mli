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
(** The one admission path for transaction content: bounds-check every
    transaction ({!Tx.check_bounds}), verify all surviving signatures in
    one {!Lo_crypto.Signer.verify_many} call, drop those [keep] rejects
    (the censorship filter; default: keep all), store the rest, and
    call [commit] once with every short id that is neither [known]
    (already committed) nor repeated in the batch, in batch order.
    {!Content_sync.ingest_batch} (both node entry points) and the
    benchmarks call it. Which transactions are stored, rejected or
    duplicate, and which ids reach [commit], match the iterated
    single-transaction path ({!Tx.prevalidate}, then {!add}); qcheck
    pins the equivalence. *)

val mem_short : t -> int -> bool
val find_short : t -> int -> entry option
val find_id : t -> string -> entry option
val entries_in_arrival_order : t -> entry list
val total_payload_bytes : t -> int
(** Cumulative stored transaction bytes (storage-overhead metric). *)
