let reconcile_fanout = 3
let demote_after = 2
let max_delta = 100
let max_digests_per_peer = 1024

type config = {
  scheme : Lo_crypto.Signer.scheme;
  reconcile_period : float;
  request_timeout : float;
  max_retries : int;
  retry_backoff : float;
  retry_jitter : float;
  sketch_capacity : int;
  clock_cells : int;
  fee_threshold : int;
  max_block_txs : int;
  digest_share_period : float;
  always_full_digests : bool;
  reject_exposed_blocks : bool;
  digest_history : int;
}

let default_config scheme =
  {
    scheme;
    reconcile_period = 1.0;
    request_timeout = 1.0;
    max_retries = 3;
    retry_backoff = 2.0;
    retry_jitter = 0.2;
    sketch_capacity = Commitment.default_sketch_capacity;
    clock_cells = Commitment.default_clock_cells;
    fee_threshold = 0;
    max_block_txs = 2000;
    digest_share_period = 2.0;
    always_full_digests = false;
    reject_exposed_blocks = false;
    digest_history = max_int;
  }

type hooks = {
  mutable on_tx_content : Tx.t -> unit;
  mutable on_block_accepted : Block.t -> unit;
  mutable on_violation : Inspector.violation -> block:Block.t -> unit;
}

let no_hooks () =
  {
    on_tx_content = (fun _ -> ());
    on_block_accepted = (fun _ -> ());
    on_violation = (fun _ ~block:_ -> ());
  }

type t = {
  config : config;
  hooks : hooks;
  trace : Lo_obs.Trace.t option;
  my_id : string;
  my_index : int;
  signer : Lo_crypto.Signer.t;
  rng : Lo_net.Rng.t;
  acc : Accountability.t;
  primary_log : Commitment.Log.t;
  now : unit -> float;
  send : dst:int -> Messages.t -> unit;
  broadcast : Messages.t -> unit;
  schedule : delay:float -> (unit -> unit) -> unit;
  id_of : int -> string;
  index_of : string -> int option;
  population : unit -> int;
  neighbors : unit -> int list;
  log_for : peer_index:int -> Commitment.Log.t;
  wire_digest : peer_index:int -> Commitment.digest;
  commit : source:string option -> ids:int list -> unit;
  expose : accused:string -> Evidence.t -> unit;
  retry_inspections : owner:string -> unit;
  record_deviation : kind:string -> height:int option -> unit;
}

let emit t ev =
  match t.trace with
  | Some tr -> Lo_obs.Trace.emit tr ~at:(t.now ()) ev
  | None -> ()
