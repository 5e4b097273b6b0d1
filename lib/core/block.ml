module Writer = Lo_codec.Writer
module Reader = Lo_codec.Reader
module Signer = Lo_crypto.Signer

type omission_reason = Low_fee | Missing_content | Settled

type t = {
  creator : string;
  height : int;
  prev_hash : string;
  start_seq : int;
  commit_seq : int;
  fee_threshold : int;
  txids : string list;
  bundle_sizes : int list;
  appendix : int;
  omissions : (int * omission_reason) list;
  timestamp : float;
  signature : string;
}

let genesis_hash = Lo_crypto.Sha256.digest "lo-genesis"

let reason_code = function Low_fee -> 0 | Missing_content -> 1 | Settled -> 2

let reason_of_code = function
  | 0 -> Low_fee
  | 1 -> Missing_content
  | 2 -> Settled
  | _ -> raise (Reader.Malformed "omission reason")

let micros ts = int_of_float (Float.round (ts *. 1e6))

let encode_unsigned w t =
  Writer.fixed w t.creator;
  Writer.varint w t.height;
  Writer.fixed w t.prev_hash;
  Writer.varint w t.start_seq;
  Writer.varint w t.commit_seq;
  Writer.varint w t.fee_threshold;
  Writer.list w (Writer.fixed w) t.txids;
  Writer.list w (Writer.varint w) t.bundle_sizes;
  Writer.varint w t.appendix;
  Writer.list w
    (fun (id, reason) ->
      Writer.u32 w id;
      Writer.u8 w (reason_code reason))
    t.omissions;
  Writer.u64 w (micros t.timestamp)

let encode w t =
  encode_unsigned w t;
  Writer.fixed w t.signature

let signing_bytes t =
  let w = Writer.create ~initial_size:256 () in
  encode_unsigned w t;
  Writer.contents w

let hash t =
  let w = Writer.create ~initial_size:256 () in
  encode w t;
  Lo_crypto.Sha256.digest (Writer.contents w)

let equal a b =
  String.equal a.signature b.signature
  && a.height = b.height
  && String.equal a.creator b.creator
  && String.equal a.prev_hash b.prev_hash
  && a.start_seq = b.start_seq
  && a.commit_seq = b.commit_seq
  && a.fee_threshold = b.fee_threshold
  && List.equal String.equal a.txids b.txids
  && List.equal Int.equal a.bundle_sizes b.bundle_sizes
  && a.appendix = b.appendix
  && List.equal (fun (i, r) (j, q) -> i = j && r = q) a.omissions b.omissions
  && micros a.timestamp = micros b.timestamp

let structure_ok t =
  t.height >= 0 && t.start_seq >= 0 && t.commit_seq >= t.start_seq
  && t.fee_threshold >= 0
  && t.appendix >= 0
  && List.length t.bundle_sizes = t.commit_seq - t.start_seq
  && List.for_all (fun s -> s >= 0) t.bundle_sizes
  && List.fold_left ( + ) 0 t.bundle_sizes + t.appendix = List.length t.txids
  && String.length t.prev_hash = 32
  && List.for_all (fun id -> String.length id = 32) t.txids

let create ~signer ~height ~prev_hash ~start_seq ~commit_seq ~fee_threshold
    ~txids ~bundle_sizes ~appendix ~omissions ~timestamp =
  let unsigned =
    {
      creator = Signer.id signer;
      height;
      prev_hash;
      start_seq;
      commit_seq;
      fee_threshold;
      txids;
      bundle_sizes;
      appendix;
      omissions;
      timestamp;
      signature = String.make Signer.signature_size '\000';
    }
  in
  if not (structure_ok unsigned) then invalid_arg "Block.create: bad structure";
  let signature = Signer.sign signer (signing_bytes unsigned) in
  { unsigned with signature }

let decode r =
  let creator = Reader.fixed r Signer.id_size in
  let height = Reader.varint r in
  let prev_hash = Reader.fixed r 32 in
  let start_seq = Reader.varint r in
  let commit_seq = Reader.varint r in
  let fee_threshold = Reader.varint r in
  let txids = Reader.list r (fun r -> Reader.fixed r 32) in
  let bundle_sizes = Reader.list r Reader.varint in
  let appendix = Reader.varint r in
  let omissions =
    Reader.list r (fun r ->
        let id = Reader.u32 r in
        let reason = reason_of_code (Reader.u8 r) in
        (id, reason))
  in
  let timestamp = float_of_int (Reader.u64 r) /. 1e6 in
  let signature = Reader.fixed r Signer.signature_size in
  let t =
    {
      creator;
      height;
      prev_hash;
      start_seq;
      commit_seq;
      fee_threshold;
      txids;
      bundle_sizes;
      appendix;
      omissions;
      timestamp;
      signature;
    }
  in
  if not (structure_ok t) then raise (Reader.Malformed "block structure");
  t

let to_string t =
  let w = Writer.create ~initial_size:256 () in
  encode w t;
  Writer.contents w

let of_string s =
  let r = Reader.of_string s in
  let t = decode r in
  Reader.expect_end r;
  t

let verify_signature scheme t =
  Signer.verify scheme ~id:t.creator ~msg:(signing_bytes t)
    ~signature:t.signature

let bundle_txids t =
  let rec take n xs =
    if n = 0 then ([], xs)
    else
      match xs with
      | [] -> invalid_arg "Block.bundle_txids: short id list"
      | x :: rest ->
          let taken, remaining = take (n - 1) rest in
          (x :: taken, remaining)
  in
  let rec go seq sizes ids acc =
    match sizes with
    | [] -> List.rev acc
    | size :: rest ->
        let bundle, remaining = take size ids in
        go (seq + 1) rest remaining ((seq, bundle) :: acc)
  in
  go (t.start_seq + 1) t.bundle_sizes t.txids []

let appendix_txids t =
  let committed = List.fold_left ( + ) 0 t.bundle_sizes in
  List.filteri (fun i _ -> i >= committed) t.txids
