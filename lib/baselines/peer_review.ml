module Network = Lo_net.Network
module Rng = Lo_net.Rng
module Writer = Lo_codec.Writer
module Reader = Lo_codec.Reader
module Signer = Lo_crypto.Signer
module Sha256 = Lo_crypto.Sha256

type config = {
  scheme : Signer.scheme;
  announce_period : float;
  fanout : int;
  num_witnesses : int;
  audit_period : float;
}

let default_config scheme =
  {
    scheme;
    announce_period = 1.0;
    fanout = 3;
    num_witnesses = 8;
    audit_period = 5.0;
  }

(* One tamper-evident log entry: the hash chain commits to the full
   send/receive history. *)
type entry = {
  seq : int;
  kind : int; (* 0 = send, 1 = recv *)
  peer : int;
  msg_hash : string;
  chain : string;
}

type t = {
  config : config;
  net : Network.t;
  index : int;
  witnesses : int list;
  signer : Signer.t;
  flood : Flood.t;
  mutable log_rev : entry list;
  mutable log_len : int;
  mutable top_chain : string;
  (* witness side: per-audited-node state *)
  audited_next : (int, int) Hashtbl.t; (* node -> next seq to fetch *)
  audited_chain : (int, string) Hashtbl.t;
  mutable audits_ok : bool;
  rng : Rng.t;
}

let chain_hash prev ~seq ~kind ~peer ~msg_hash =
  let w = Writer.create ~initial_size:64 () in
  Writer.fixed w prev;
  Writer.varint w seq;
  Writer.u8 w kind;
  Writer.varint w peer;
  Writer.fixed w msg_hash;
  Sha256.digest (Writer.contents w)

let append_log t ~kind ~peer ~payload =
  let seq = t.log_len in
  let msg_hash = Sha256.digest payload in
  let chain = chain_hash t.top_chain ~seq ~kind ~peer ~msg_hash in
  t.log_rev <- { seq; kind; peer; msg_hash; chain } :: t.log_rev;
  t.log_len <- t.log_len + 1;
  t.top_chain <- chain

(* Authenticator: signed (seq, top hash) — attached to every message. *)
let authenticator t =
  let w = Writer.create ~initial_size:128 () in
  Writer.varint w t.log_len;
  Writer.fixed w t.top_chain;
  let body = Writer.contents w in
  let signature = Signer.sign t.signer body in
  let out = Writer.create ~initial_size:128 () in
  Writer.bytes out body;
  Writer.fixed out signature;
  Writer.contents out

let encode_entry w e =
  Writer.varint w e.seq;
  Writer.u8 w e.kind;
  Writer.varint w e.peer;
  Writer.fixed w e.msg_hash;
  Writer.fixed w e.chain

let decode_entry r =
  let seq = Reader.varint r in
  let kind = Reader.u8 r in
  let peer = Reader.varint r in
  let msg_hash = Reader.fixed r 32 in
  let chain = Reader.fixed r 32 in
  { seq; kind; peer; msg_hash; chain }

let create config ~net ~index ~neighbors ~witnesses ~signer =
  let flood_config =
    {
      Flood.scheme = config.scheme;
      announce_period = config.announce_period;
      fanout = config.fanout;
      tag_prefix = "pr";
    }
  in
  let flood = Flood.create flood_config ~net ~index ~neighbors in
  let t =
    {
      config;
      net;
      index;
      witnesses;
      signer;
      flood;
      log_rev = [];
      log_len = 0;
      top_chain = Sha256.digest "peerreview-genesis";
      audited_next = Hashtbl.create 8;
      audited_chain = Hashtbl.create 8;
      audits_ok = true;
      rng = Rng.split (Network.rng net);
    }
  in
  (* Log every flood message and attach authenticators to sends; ack
     receipts with our own authenticator. *)
  Flood.set_observer flood (fun ~dir ~peer ~tag:_ ~payload ->
      match dir with
      | `Send ->
          append_log t ~kind:0 ~peer ~payload;
          Network.send t.net ~src:t.index ~dst:peer ~tag:"pr:auth"
            (authenticator t)
      | `Recv ->
          append_log t ~kind:1 ~peer ~payload;
          Network.send t.net ~src:t.index ~dst:peer ~tag:"pr:ack"
            (authenticator t));
  t

let submit_tx t tx = Flood.submit_tx t.flood tx
let mempool_size t = Flood.mempool_size t.flood
let log_length t = t.log_len
let on_tx_content t f = Flood.on_tx_content t.flood f
let audits_ok t = t.audits_ok

let handle_audit_request t ~from payload =
  match
    let r = Reader.of_string payload in
    let since = Reader.varint r in
    Reader.expect_end r;
    since
  with
  | exception Reader.Malformed _ -> ()
  | since ->
      let entries =
        List.filter (fun e -> e.seq >= since) (List.rev t.log_rev)
      in
      let w = Writer.create ~initial_size:(80 * List.length entries) () in
      Writer.list w (encode_entry w) entries;
      Writer.fixed w (authenticator t);
      Network.send t.net ~src:t.index ~dst:from ~tag:"pr:log"
        (Writer.contents w)

let handle_log t ~from payload =
  match
    let r = Reader.of_string payload in
    let entries = Reader.list r decode_entry in
    entries
  with
  | exception Reader.Malformed _ -> t.audits_ok <- false
  | entries ->
      (* Replay the hash chain from the last audited point. *)
      let expected_chain =
        Option.value
          (Hashtbl.find_opt t.audited_chain from)
          ~default:(Sha256.digest "peerreview-genesis")
      in
      let chain = ref expected_chain in
      let ok =
        List.for_all
          (fun e ->
            let c =
              chain_hash !chain ~seq:e.seq ~kind:e.kind ~peer:e.peer
                ~msg_hash:e.msg_hash
            in
            let valid = String.equal c e.chain in
            if valid then chain := c;
            valid)
          entries
      in
      if ok then begin
        (match List.rev entries with
        | last :: _ ->
            Hashtbl.replace t.audited_next from (last.seq + 1);
            Hashtbl.replace t.audited_chain from last.chain
        | [] -> ())
      end
      else t.audits_ok <- false

let handle t net ~from ~tag payload =
  match tag with
  | "pr:auth" | "pr:ack" -> () (* verified lazily during audits *)
  | "pr:audit-req" -> handle_audit_request t ~from payload
  | "pr:log" -> handle_log t ~from payload
  | _ -> Flood.handle t.flood net ~from ~tag payload

let rec audit_round t =
  (* As witness, fetch the new log segment of each node we audit. *)
  List.iter
    (fun node ->
      let since = Option.value (Hashtbl.find_opt t.audited_next node) ~default:0 in
      let w = Writer.create ~initial_size:8 () in
      Writer.varint w since;
      Network.send t.net ~src:t.index ~dst:node ~tag:"pr:audit-req"
        (Writer.contents w))
    t.witnesses;
  Network.schedule t.net ~delay:t.config.audit_period (fun _ -> audit_round t)

let start t =
  Flood.start t.flood;
  (* Replace the flood handler with ours (which delegates). *)
  Network.set_handler t.net t.index (handle t);
  if t.witnesses <> [] then
    Network.schedule t.net
      ~delay:(Rng.float t.rng t.config.audit_period)
      (fun _ -> audit_round t)
