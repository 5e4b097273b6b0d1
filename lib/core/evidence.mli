(** Transferable proofs of misbehaviour ("exposures", paper Sec. 3.2 and
    5.2).

    Evidence must be verifiable by any third party from signed material
    alone: either two commitments by the same owner that cannot both be
    honest, or a signed block contradicting a signed commitment pair.
    [verify] re-derives everything; a node receiving an exposure message
    never takes the sender's word for it. *)

type t =
  | Conflicting_digests of {
      older : Commitment.digest;
      newer : Commitment.digest;
    }  (** equivocation / withholding: [newer] does not extend [older] *)
  | Block_bundle_violation of {
      block : Block.t;
      older : Commitment.digest;
      newer : Commitment.digest;
      omitted_tx : Tx.t option;
          (** present for a censorship/false-omission proof: the
              committed transaction the block left out *)
    }

val accused : t -> string

val verify : Lo_crypto.Signer.scheme -> t -> bool
(** Sound: returns [true] only if the accused really signed
    contradictory material. Inconclusive sketch decodes make evidence
    invalid rather than accepted. *)

val encode : Lo_codec.Writer.t -> t -> unit
val decode : ?tx_pool:Interner.Tx_pool.t -> Lo_codec.Reader.t -> t
(** [tx_pool] decodes the omitted transaction through the world's pool
    ({!Interner.Tx_pool.decode}). *)

val describe : t -> string
