module Writer = Lo_codec.Writer
module Reader = Lo_codec.Reader
module Signer = Lo_crypto.Signer

type suspicion_note = {
  suspect : string;
  reporter : string;
  last_digest : Commitment.digest option;
  reason : string;
}

type t =
  | Submit of Tx.t
  | Submit_ack of { txid : string; ack_signature : string }
  | Commit_request of {
      digest : Commitment.digest;
      delta : int list;
      want : int list;
      appended : int list;
    }
  | Commit_response of {
      digest : Commitment.digest;
      want : int list;
      delta : int list;
      appended : int list;
    }
  | Tx_batch of Tx.t list
  | Digest_share of Commitment.digest
  | Digest_request of { owner : string; seq : int }
  | Digest_reply of Commitment.digest list
  | Suspicion_note of suspicion_note
  | Suspicion_withdraw of { suspect : string; reporter : string }
  | Exposure_note of Evidence.t
  | Block_announce of Block.t

let tag = function
  | Submit _ -> "lo:submit"
  | Submit_ack _ -> "lo:submit-ack"
  | Commit_request _ -> "lo:commit-req"
  | Commit_response _ -> "lo:commit-resp"
  | Tx_batch _ -> "lo:txs"
  | Digest_share _ -> "lo:digest"
  | Digest_request _ -> "lo:digest-req"
  | Digest_reply _ -> "lo:digest-reply"
  | Suspicion_note _ -> "lo:suspicion"
  | Suspicion_withdraw _ -> "lo:withdraw"
  | Exposure_note _ -> "lo:exposure"
  | Block_announce _ -> "lo:block"

let encode_into w msg =
  Writer.reset w;
  (match msg with
  | Submit tx ->
      Writer.u8 w 0;
      Tx.encode w tx
  | Submit_ack { txid; ack_signature } ->
      Writer.u8 w 10;
      Writer.fixed w txid;
      Writer.fixed w ack_signature
  | Commit_request { digest; delta; want; appended } ->
      Writer.u8 w 1;
      Commitment.encode w digest;
      Writer.list w (Writer.u32 w) delta;
      Writer.list w (Writer.u32 w) want;
      Writer.list w (Writer.u32 w) appended
  | Commit_response { digest; want; delta; appended } ->
      Writer.u8 w 2;
      Commitment.encode w digest;
      Writer.list w (Writer.u32 w) want;
      Writer.list w (Writer.u32 w) delta;
      Writer.list w (Writer.u32 w) appended
  | Tx_batch txs ->
      Writer.u8 w 3;
      Writer.list w (Tx.encode w) txs
  | Digest_share digest ->
      Writer.u8 w 4;
      Commitment.encode w digest
  | Digest_request { owner; seq } ->
      Writer.u8 w 5;
      Writer.fixed w owner;
      Writer.varint w seq
  | Digest_reply digests ->
      Writer.u8 w 6;
      Writer.list w (Commitment.encode w) digests
  | Suspicion_note { suspect; reporter; last_digest; reason } ->
      Writer.u8 w 7;
      Writer.fixed w suspect;
      Writer.fixed w reporter;
      (match last_digest with
      | None -> Writer.u8 w 0
      | Some d ->
          Writer.u8 w 1;
          Commitment.encode w d);
      Writer.bytes w reason
  | Suspicion_withdraw { suspect; reporter } ->
      Writer.u8 w 11;
      Writer.fixed w suspect;
      Writer.fixed w reporter
  | Exposure_note evidence ->
      Writer.u8 w 8;
      Evidence.encode w evidence
  | Block_announce block ->
      Writer.u8 w 9;
      Block.encode w block);
  Writer.contents w

let encode msg = encode_into (Writer.create ~initial_size:128 ()) msg

let decode_reader ?tx_pool r =
  let tx_decode =
    match tx_pool with
    | None -> Tx.decode
    | Some pool -> Interner.Tx_pool.decode pool
  in
  let msg =
    match Reader.u8 r with
    | 0 -> Submit (tx_decode r)
    | 1 ->
        let digest = Commitment.decode r in
        let delta = Reader.list r Reader.u32 in
        let want = Reader.list r Reader.u32 in
        let appended = Reader.list r Reader.u32 in
        Commit_request { digest; delta; want; appended }
    | 2 ->
        let digest = Commitment.decode r in
        let want = Reader.list r Reader.u32 in
        let delta = Reader.list r Reader.u32 in
        let appended = Reader.list r Reader.u32 in
        Commit_response { digest; want; delta; appended }
    | 3 -> Tx_batch (Reader.list r tx_decode)
    | 4 -> Digest_share (Commitment.decode r)
    | 5 ->
        let owner = Reader.fixed r Signer.id_size in
        let seq = Reader.varint r in
        Digest_request { owner; seq }
    | 6 -> Digest_reply (Reader.list r Commitment.decode)
    | 7 ->
        let suspect = Reader.fixed r Signer.id_size in
        let reporter = Reader.fixed r Signer.id_size in
        let last_digest =
          match Reader.u8 r with
          | 0 -> None
          | 1 -> Some (Commitment.decode r)
          | _ -> raise (Reader.Malformed "suspicion digest flag")
        in
        let reason = Reader.bytes r in
        Suspicion_note { suspect; reporter; last_digest; reason }
    | 8 -> Exposure_note (Evidence.decode ?tx_pool r)
    | 9 -> Block_announce (Block.decode r)
    | 10 ->
        let txid = Reader.fixed r 32 in
        let ack_signature = Reader.fixed r Signer.signature_size in
        Submit_ack { txid; ack_signature }
    | 11 ->
        let suspect = Reader.fixed r Signer.id_size in
        let reporter = Reader.fixed r Signer.id_size in
        Suspicion_withdraw { suspect; reporter }
    | _ -> raise (Reader.Malformed "message kind")
  in
  Reader.expect_end r;
  msg

let decode ?tx_pool s = decode_reader ?tx_pool (Reader.of_string s)

let size msg = String.length (encode msg)
