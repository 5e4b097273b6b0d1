(** Wire messages of the LØ protocol.

    Each variant has a distinct tag under the ["lo"] protocol prefix so
    the bandwidth accounting can attribute every byte to a message
    class — the breakdown behind Fig. 9. *)

type suspicion_note = {
  suspect : string;
  reporter : string;
  last_digest : Commitment.digest option;
  reason : string;
}

type t =
  | Submit of Tx.t  (** client submission (Stage I) *)
  | Submit_ack of { txid : string; ack_signature : string }
      (** miner's signed receipt that the transaction entered its
          mempool (Stage I, step 3 — the optional acknowledgement) *)
  | Commit_request of {
      digest : Commitment.digest;
      delta : int list;  (** ids the receiver is missing (Alg. 1 line 16) *)
      want : int list;  (** ids whose content the sender still needs *)
      appended : int list;
          (** the sender's newest bundle (the ids it just committed),
              letting the receiver track the sender's bundle structure
              for block inspection *)
    }
  | Commit_response of {
      digest : Commitment.digest;
      want : int list;  (** content the responder still needs *)
      delta : int list;
          (** ids the responder believes the requester is missing
              (the reverse direction of Alg. 1's exchange) *)
      appended : int list;  (** the responder's newest bundle *)
    }
  | Tx_batch of Tx.t list  (** requested transaction content *)
  | Digest_share of Commitment.digest
      (** periodic/most-recent commitment dissemination (Sec. 5.2) *)
  | Digest_request of { owner : string; seq : int }
      (** fetch a historical digest of [owner] at [seq] (and [seq - 1]) *)
  | Digest_reply of Commitment.digest list
  | Suspicion_note of suspicion_note
  | Suspicion_withdraw of { suspect : string; reporter : string }
      (** retraction gossip: [reporter] saw the suspect answer again, so
          receivers clear the matching suspicion (temporal accuracy,
          Sec. 3.2 — benign faults must resolve, not accumulate) *)
  | Exposure_note of Evidence.t
  | Block_announce of Block.t

val tag : t -> string
(** e.g. ["lo:commit-req"]; all tags share the ["lo"] proto prefix. *)

val encode : t -> string

val encode_into : Lo_codec.Writer.t -> t -> string
(** [encode] through a caller-owned (pooled) writer: resets it, writes
    the same bytes [encode] would produce, returns them. Reusing one
    writer across sends keeps the encoder's scratch storage out of the
    per-message allocation bill. *)

val decode : ?tx_pool:Interner.Tx_pool.t -> string -> t
(** @raise Lo_codec.Reader.Malformed on invalid input.

    [tx_pool] decodes every transaction ([Submit], [Tx_batch] and
    evidence) through the world's pool ({!Interner.Tx_pool.decode}):
    the same message, and [Malformed] on the same inputs. *)

val decode_reader : ?tx_pool:Interner.Tx_pool.t -> Lo_codec.Reader.t -> t
(** [decode] straight out of a reader view — the zero-copy wire path
    hands in a {!Lo_codec.Reader.sub_view} over the receive buffer, so
    the payload is never copied into an intermediate string. Consumes
    the view to its end ([Malformed] on trailing bytes). *)

val size : t -> int
