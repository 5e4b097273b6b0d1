(** Transactions.

    A transaction carries its creator's identity and signature, a fee,
    and an opaque payload. The id is the SHA-256 digest of the full
    encoding; prevalidation (Stage I/II of the paper's pipeline) checks
    the signature, fee and size bounds. *)

type t = private {
  id : string;  (** 32-byte digest of the encoding *)
  origin : string;  (** creator identity (33 bytes) *)
  fee : int;
  created_at : float;  (** client-side creation time, seconds *)
  payload : string;
  signature : string;  (** 64 bytes over the unsigned encoding *)
}

val create :
  signer:Lo_crypto.Signer.t ->
  fee:int ->
  created_at:float ->
  payload:string ->
  t

val short_id : t -> int
val encode : Lo_codec.Writer.t -> t -> unit
val decode : Lo_codec.Reader.t -> t
(** @raise Lo_codec.Reader.Malformed on bad input. The id is recomputed
    from the bytes, never trusted. *)

val skip : Lo_codec.Reader.t -> unit
(** Consume one encoded transaction without decoding it: the same
    framing checks as {!decode}, raising [Malformed] on exactly the
    inputs {!decode} rejects and leaving the reader where {!decode}
    would, but copying no field out and hashing nothing. *)

val to_string : t -> string
val of_string : string -> t
val encoded_size : t -> int

val max_payload_size : int
(** Prevalidation bound (16 KiB). *)

val unsigned_bytes : t -> string
(** The canonical unsigned encoding — the bytes the origin signed (and
    the prefix of the full encoding the id digests). The batched
    admission path feeds these to {!Lo_crypto.Signer.verify_many}. *)

val prevalidate : Lo_crypto.Signer.scheme -> t -> (unit, string) result
(** Signature, fee >= 0, payload size; the checks of paper Stage I
    step 2. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
