module Writer = Lo_codec.Writer
module Reader = Lo_codec.Reader
module Signer = Lo_crypto.Signer

type t = {
  id : string;
  origin : string;
  fee : int;
  created_at : float;
  payload : string;
  signature : string;
}

let max_payload_size = 16 * 1024

let micros_of_time ts = int_of_float (Float.round (ts *. 1e6))
let time_of_micros us = float_of_int us /. 1e6

let encode_unsigned w ~origin ~fee ~created_at ~payload =
  Writer.fixed w origin;
  Writer.varint w fee;
  Writer.u64 w (micros_of_time created_at);
  Writer.bytes w payload

let encode w t =
  encode_unsigned w ~origin:t.origin ~fee:t.fee ~created_at:t.created_at
    ~payload:t.payload;
  Writer.fixed w t.signature

let signing_bytes ~origin ~fee ~created_at ~payload =
  let w = Writer.create () in
  encode_unsigned w ~origin ~fee ~created_at ~payload;
  Writer.contents w

let varint_size v =
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1

let create ~signer ~fee ~created_at ~payload =
  if fee < 0 then invalid_arg "Tx.create: negative fee";
  if String.length payload > max_payload_size then
    invalid_arg "Tx.create: payload too large";
  let origin = Signer.id signer in
  let unsigned = signing_bytes ~origin ~fee ~created_at ~payload in
  let signature = Signer.sign signer unsigned in
  let id = Lo_crypto.Sha256.digest_list [ unsigned; signature ] in
  { id; origin; fee; created_at; payload; signature }

let short_id t = Short_id.of_txid t.id

let decode r =
  let start = Reader.pos r in
  let origin = Reader.fixed r Signer.id_size in
  let fee = Reader.varint r in
  let fee_end = Reader.pos r in
  let us = Reader.u64 r in
  let created_at = time_of_micros us in
  let payload = Reader.bytes r in
  if String.length payload > max_payload_size then
    raise (Reader.Malformed "tx payload too large");
  let unsigned_end = Reader.pos r in
  let signature = Reader.fixed r Signer.signature_size in
  (* The id covers the canonical unsigned encoding. On canonical input
     — minimal varints, round-trippable timestamp — that encoding IS
     the wire span just decoded, so it can be sliced out instead of
     re-encoded through a fresh Writer. Non-minimal (but parseable)
     input falls back to re-encoding, preserving the semantics that the
     id is always computed over the canonical form. *)
  let unsigned =
    if
      fee_end - start - Signer.id_size = varint_size fee
      && unsigned_end - fee_end - 8 - String.length payload
         = varint_size (String.length payload)
      && micros_of_time created_at = us
    then Reader.slice r ~from:start ~until:unsigned_end
    else signing_bytes ~origin ~fee ~created_at ~payload
  in
  let id = Lo_crypto.Sha256.digest_list [ unsigned; signature ] in
  { id; origin; fee; created_at; payload; signature }

(* [decode]'s reads in [decode]'s order, none of them copied out, so
   it raises exactly where [decode] raises. *)
let skip r =
  Reader.skip r Signer.id_size;
  ignore (Reader.varint r : int);
  ignore (Reader.u64 r : int);
  let n = Reader.varint r in
  Reader.skip r n;
  if n > max_payload_size then raise (Reader.Malformed "tx payload too large");
  Reader.skip r Signer.signature_size

let to_string t =
  let w = Writer.create () in
  encode w t;
  Writer.contents w

let of_string s =
  let r = Reader.of_string s in
  let t = decode r in
  Reader.expect_end r;
  t

(* Wire-layout arithmetic, not a re-encode: fixed origin, fee varint,
   8-byte timestamp, length-prefixed payload, fixed signature. *)
let encoded_size t =
  String.length t.origin + varint_size t.fee + 8
  + varint_size (String.length t.payload)
  + String.length t.payload + String.length t.signature

let unsigned_bytes t =
  signing_bytes ~origin:t.origin ~fee:t.fee ~created_at:t.created_at
    ~payload:t.payload

let check_bounds t =
  if t.fee < 0 then Error "negative fee"
  else if String.length t.payload > max_payload_size then Error "oversized payload"
  else Ok ()

let prevalidate scheme t =
  match check_bounds t with
  | Error _ as e -> e
  | Ok () ->
      if
        Signer.verify scheme ~id:t.origin ~msg:(unsigned_bytes t)
          ~signature:t.signature
      then Ok ()
      else Error "invalid signature"

let equal a b = String.equal a.id b.id
