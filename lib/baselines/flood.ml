module Network = Lo_net.Network
module Rng = Lo_net.Rng
module Writer = Lo_codec.Writer
module Reader = Lo_codec.Reader
module Tx = Lo_core.Tx

type config = {
  scheme : Lo_crypto.Signer.scheme;
  announce_period : float;
  fanout : int;
  tag_prefix : string;
}

let default_config scheme =
  { scheme; announce_period = 1.0; fanout = 3; tag_prefix = "flood" }

type t = {
  config : config;
  net : Network.t;
  index : int;
  neighbors : int list;
  rng : Rng.t;
  txs : (string, Tx.t) Hashtbl.t; (* by full txid *)
  mutable on_content : Tx.t -> now:float -> unit;
  mutable observer :
    dir:[ `Send | `Recv ] -> peer:int -> tag:string -> payload:string -> unit;
}

let create config ~net ~index ~neighbors =
  {
    config;
    net;
    index;
    neighbors;
    rng = Rng.split (Network.rng net);
    txs = Hashtbl.create 256;
    on_content = (fun _ ~now:_ -> ());
    observer = (fun ~dir:_ ~peer:_ ~tag:_ ~payload:_ -> ());
  }

let mempool_size t = Hashtbl.length t.txs
let has_tx t id = Hashtbl.mem t.txs id
let on_tx_content t f = t.on_content <- f
let set_observer t f = t.observer <- f

let tag t suffix = t.config.tag_prefix ^ ":" ^ suffix

let send t ~dst ~suffix payload =
  let tag = tag t suffix in
  t.observer ~dir:`Send ~peer:dst ~tag ~payload;
  Network.send t.net ~src:t.index ~dst ~tag payload

let encode_ids ids =
  let w = Writer.create ~initial_size:(32 * List.length ids) () in
  Writer.list w (Writer.fixed w) ids;
  Writer.contents w

let decode_ids s =
  let r = Reader.of_string s in
  let ids = Reader.list r (fun r -> Reader.fixed r 32) in
  Reader.expect_end r;
  ids

let store t tx =
  if not (Hashtbl.mem t.txs tx.Tx.id) then begin
    Hashtbl.add t.txs tx.Tx.id tx;
    t.on_content tx ~now:(Network.now t.net)
  end

let submit_tx t tx =
  match Tx.prevalidate t.config.scheme tx with
  | Ok () -> store t tx
  | Error _ -> ()

let handle t _net ~from ~tag:msg_tag payload =
  t.observer ~dir:`Recv ~peer:from ~tag:msg_tag ~payload;
  let suffix =
    let prefix_len = String.length t.config.tag_prefix + 1 in
    if String.length msg_tag > prefix_len then
      String.sub msg_tag prefix_len (String.length msg_tag - prefix_len)
    else ""
  in
  match suffix with
  | "mempool" -> begin
      match decode_ids payload with
      | exception Reader.Malformed _ -> ()
      | ids ->
          let unknown = List.filter (fun id -> not (Hashtbl.mem t.txs id)) ids in
          if unknown <> [] then send t ~dst:from ~suffix:"getdata" (encode_ids unknown)
    end
  | "getdata" -> begin
      match decode_ids payload with
      | exception Reader.Malformed _ -> ()
      | ids ->
          let have = List.filter_map (Hashtbl.find_opt t.txs) ids in
          if have <> [] then begin
            let w = Writer.create () in
            Writer.list w (Tx.encode w) have;
            send t ~dst:from ~suffix:"tx" (Writer.contents w)
          end
    end
  | "tx" -> begin
      match
        let r = Reader.of_string payload in
        let txs = Reader.list r Tx.decode in
        Reader.expect_end r;
        txs
      with
      | exception Reader.Malformed _ -> ()
      | txs ->
          List.iter
            (fun tx ->
              match Tx.prevalidate t.config.scheme tx with
              | Ok () -> store t tx
              | Error _ -> ())
            txs
    end
  | _ -> ()

let rec announce_round t =
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.txs [] in
  if ids <> [] then begin
    let payload = encode_ids ids in
    let targets =
      Rng.sample_without_replacement t.rng t.config.fanout t.neighbors
    in
    List.iter (fun dst -> send t ~dst ~suffix:"mempool" payload) targets
  end;
  Network.schedule t.net ~delay:t.config.announce_period (fun _ ->
      announce_round t)

let start t =
  Network.set_handler t.net t.index (handle t);
  Network.schedule t.net
    ~delay:(Rng.float t.rng t.config.announce_period)
    (fun _ -> announce_round t)
