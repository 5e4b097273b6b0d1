(** Blocks with verifiable structure (paper Sec. 4.3).

    A LØ block declares, besides the ordered transaction ids, everything
    an inspector needs to replay the deterministic build: the creator's
    commitment sequence number the block covers, the fee threshold used
    for selection, the bundle partition of the transaction list, the
    explicitly omitted ids with their claimed reasons, and a tail
    "appendix" of the creator's own fresh transactions (allowed after
    all committed bundles). *)

type omission_reason =
  | Low_fee  (** claimed fee below the declared threshold *)
  | Missing_content  (** id committed but content never arrived *)
  | Settled  (** already included in an earlier block of the chain *)

type t = {
  creator : string;  (** 33-byte identity *)
  height : int;
  prev_hash : string;  (** 32 bytes; doubles as the order seed *)
  start_seq : int;
      (** all creator bundles up to [start_seq] are fully settled by
          earlier blocks and therefore not re-listed *)
  commit_seq : int;  (** creator bundles covered: start_seq+1..commit_seq *)
  fee_threshold : int;
  txids : string list;  (** full 32-byte ids, block order *)
  bundle_sizes : int list;  (** length [commit_seq - start_seq] *)
  appendix : int;  (** fresh own transactions at the tail *)
  omissions : (int * omission_reason) list;  (** short id, reason *)
  timestamp : float;
  signature : string;
}

val genesis_hash : string

val create :
  signer:Lo_crypto.Signer.t ->
  height:int ->
  prev_hash:string ->
  start_seq:int ->
  commit_seq:int ->
  fee_threshold:int ->
  txids:string list ->
  bundle_sizes:int list ->
  appendix:int ->
  omissions:(int * omission_reason) list ->
  timestamp:float ->
  t
(** @raise Invalid_argument if the structure is inconsistent
    (bundle sizes/appendix not summing to the id count, or a bad
    [bundle_sizes] length). *)

val hash : t -> string
val encode : Lo_codec.Writer.t -> t -> unit
val decode : Lo_codec.Reader.t -> t
val to_string : t -> string
val of_string : string -> t
val verify_signature : Lo_crypto.Signer.scheme -> t -> bool

val structure_ok : t -> bool
(** Shape invariants: sizes sum to the id count, sizes list length
    matches [commit_seq], non-negative fields. *)

val bundle_txids : t -> (int * string list) list
(** The block's ids grouped per bundle: (bundle seq, ids in block
    order); excludes the appendix. *)

val appendix_txids : t -> string list
