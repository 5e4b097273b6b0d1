module Network = Lo_net.Network
module Rng = Lo_net.Rng
module Writer = Lo_codec.Writer
module Reader = Lo_codec.Reader
module Signer = Lo_crypto.Signer
module Sha256 = Lo_crypto.Sha256
module Tx = Lo_core.Tx

type config = {
  scheme : Signer.scheme;
  batch_period : float;
  quorum_fraction : float;
}

let default_config scheme =
  { scheme; batch_period = 0.5; quorum_fraction = 2. /. 3. }

type batch = { digest : string; txs : Tx.t list }

type t = {
  config : config;
  net : Network.t;
  index : int;
  num_nodes : int;
  signer : Signer.t;
  rng : Rng.t;
  mutable fresh : Tx.t list; (* awaiting batching *)
  batches : (string, batch) Hashtbl.t; (* digest -> batch *)
  acks : (string, int ref) Hashtbl.t; (* own batches: ack counts *)
  certified : (string, unit) Hashtbl.t; (* own batches already in a header *)
  committed : (string, unit) Hashtbl.t; (* tx ids seen in headers *)
  txs_seen : (string, unit) Hashtbl.t;
  mutable headers : int;
  mutable round : int;
  mutable on_content : Tx.t -> now:float -> unit;
  mutable on_committed : string -> now:float -> unit;
}

let create config ~net ~index ~num_nodes ~signer =
  {
    config;
    net;
    index;
    num_nodes;
    signer;
    rng = Rng.split (Network.rng net);
    fresh = [];
    batches = Hashtbl.create 64;
    acks = Hashtbl.create 16;
    certified = Hashtbl.create 16;
    committed = Hashtbl.create 256;
    txs_seen = Hashtbl.create 256;
    headers = 0;
    round = 0;
    on_content = (fun _ ~now:_ -> ());
    on_committed = (fun _ ~now:_ -> ());
  }

let on_tx_content t f = t.on_content <- f
let on_tx_committed t f = t.on_committed <- f
let headers_seen t = t.headers

let note_tx t tx =
  if not (Hashtbl.mem t.txs_seen tx.Tx.id) then begin
    Hashtbl.add t.txs_seen tx.Tx.id ();
    t.on_content tx ~now:(Network.now t.net)
  end

let submit_tx t tx =
  match Tx.prevalidate t.config.scheme tx with
  | Error _ -> ()
  | Ok () ->
      if not (Hashtbl.mem t.txs_seen tx.Tx.id) then begin
        note_tx t tx;
        t.fresh <- tx :: t.fresh
      end

let encode_batch batch =
  let w = Writer.create ~initial_size:512 () in
  Writer.fixed w batch.digest;
  Writer.list w (Tx.encode w) batch.txs;
  Writer.contents w

let decode_batch payload =
  let r = Reader.of_string payload in
  let digest = Reader.fixed r 32 in
  let txs = Reader.list r Tx.decode in
  Reader.expect_end r;
  { digest; txs }

let broadcast t ~tag payload =
  for dst = 0 to t.num_nodes - 1 do
    if dst <> t.index then Network.send t.net ~src:t.index ~dst ~tag payload
  done

let quorum t =
  int_of_float (ceil (t.config.quorum_fraction *. float_of_int t.num_nodes))

let make_header t digest =
  (* Header: creator-signed reference to a certified batch. *)
  let w = Writer.create ~initial_size:128 () in
  Writer.varint w t.index;
  Writer.fixed w digest;
  let body = Writer.contents w in
  let signature = Signer.sign t.signer body in
  let out = Writer.create ~initial_size:200 () in
  Writer.bytes out body;
  Writer.fixed out signature;
  Writer.contents out

let handle t _net ~from ~tag payload =
  match tag with
  | "nw:batch" -> begin
      match decode_batch payload with
      | exception Reader.Malformed _ -> ()
      | batch ->
          if not (Hashtbl.mem t.batches batch.digest) then begin
            Hashtbl.replace t.batches batch.digest batch;
            List.iter (note_tx t) batch.txs
          end;
          (* Acknowledge (signed). *)
          let ack = Signer.sign t.signer batch.digest in
          Network.send t.net ~src:t.index ~dst:from ~tag:"nw:ack"
            (batch.digest ^ ack)
    end
  | "nw:ack" ->
      if String.length payload >= 32 then begin
        let digest = String.sub payload 0 32 in
        match Hashtbl.find_opt t.acks digest with
        | None -> ()
        | Some count ->
            incr count;
            if !count >= quorum t && not (Hashtbl.mem t.certified digest) then begin
              Hashtbl.add t.certified digest ();
              let header = make_header t digest in
              broadcast t ~tag:"nw:header" header;
              (* Local commit of own header. *)
              (match Hashtbl.find_opt t.batches digest with
              | Some batch ->
                  List.iter
                    (fun tx ->
                      if not (Hashtbl.mem t.committed tx.Tx.id) then begin
                        Hashtbl.add t.committed tx.Tx.id ();
                        t.on_committed tx.Tx.id ~now:(Network.now t.net)
                      end)
                    batch.txs
              | None -> ());
              t.headers <- t.headers + 1
            end
      end
  | "nw:header" -> begin
      match
        let r = Reader.of_string payload in
        let body = Reader.bytes r in
        let _sig = Reader.fixed r Signer.signature_size in
        Reader.expect_end r;
        let rb = Reader.of_string body in
        let creator = Reader.varint rb in
        let digest = Reader.fixed rb 32 in
        (creator, digest)
      with
      | exception Reader.Malformed _ -> ()
      | creator, digest ->
          t.headers <- t.headers + 1;
          (match Hashtbl.find_opt t.batches digest with
          | Some batch ->
              List.iter
                (fun tx ->
                  if not (Hashtbl.mem t.committed tx.Tx.id) then begin
                    Hashtbl.add t.committed tx.Tx.id ();
                    t.on_committed tx.Tx.id ~now:(Network.now t.net)
                  end)
                batch.txs
          | None ->
              (* Fetch the missing batch from the header's originator. *)
              if creator >= 0 && creator < t.num_nodes && creator <> t.index
              then
                Network.send t.net ~src:t.index ~dst:creator
                  ~tag:"nw:batch-req" digest)
    end
  | "nw:batch-req" -> begin
      match Hashtbl.find_opt t.batches payload with
      | Some batch ->
          Network.send t.net ~src:t.index ~dst:from ~tag:"nw:batch"
            (encode_batch batch)
      | None -> ()
    end
  | _ -> ()

let rec batch_round t =
  (* Narwhal's DAG advances every round on every validator: a batch is
     produced each period even when no fresh transactions arrived, and
     the quorum of acknowledgements is gathered regardless. This
     round-based quorum traffic is the O(n^2) cost the paper measures. *)
  let txs = List.rev t.fresh in
  t.fresh <- [];
  t.round <- t.round + 1;
  let digest =
    Sha256.digest_list
      (Printf.sprintf "nw-round-%d-%d" t.index t.round
      :: List.map (fun tx -> tx.Tx.id) txs)
  in
  let batch = { digest; txs } in
  Hashtbl.replace t.batches digest batch;
  Hashtbl.replace t.acks digest (ref 0);
  broadcast t ~tag:"nw:batch" (encode_batch batch);
  Network.schedule t.net ~delay:t.config.batch_period (fun _ -> batch_round t)

let start t =
  Network.set_handler t.net t.index (handle t);
  Network.schedule t.net
    ~delay:(Rng.float t.rng t.config.batch_period)
    (fun _ -> batch_round t)
