(* The node façade: wires the protocol submodules together.

   The actual protocol logic lives in the layered submodules —
   {!Reconciler} (Alg. 1 pairwise reconciliation), {!Content_sync}
   (Stage II content exchange), {!Peer_tracker} (commitment snapshots +
   equivocation detection), {!Block_pipeline} (build/accept/inspect) and
   {!Adversary} (faulty behaviours). This module owns identity, the
   commitment log(s), the message dispatch and the periodic timers, and
   hands every submodule a {!Node_env.t} of service closures. *)

module Rng = Lo_net.Rng
module Transport = Lo_transport
module Signer = Lo_crypto.Signer

type behavior = Adversary.t =
  | Honest
  | Silent_censor
  | Tx_censor of (Tx.t -> bool)
  | Block_injector
  | Block_reorderer
  | Blockspace_censor of (Tx.t -> bool)
  | Equivocator

type config = Node_env.config = {
  scheme : Signer.scheme;
  reconcile_period : float;
  request_timeout : float;
  max_retries : int;
  retry_backoff : float;
  retry_jitter : float;
  max_block_txs : int;
  digest_share_period : float;
  always_full_digests : bool;
  reject_exposed_blocks : bool;
  digest_history : int;
}

let default_config = Node_env.default_config

type hooks = Node_env.hooks = {
  mutable on_tx_content : Tx.t -> unit;
  mutable on_block_accepted : Block.t -> unit;
  mutable on_violation : Inspector.violation -> block:Block.t -> unit;
}

type t = {
  config : config;
  transport : Transport.t;
  index : int;
  directory : Directory.t;
  signer : Signer.t;
  my_id : string;
  mutable neighbors : int list;
  behavior : behavior;
  rng : Rng.t;
  mempool : Mempool.t;
  log : Commitment.Log.t;
  alt_log : Commitment.Log.t option; (* equivocation fork *)
  acc : Accountability.t;
  hooks : hooks;
  content : Content_sync.t;
  tracker : Peer_tracker.t;
  reconciler : Reconciler.t;
  pipeline : Block_pipeline.t;
  seen_exposures : (string, unit) Hashtbl.t;
  deviations : (string * int option, float) Hashtbl.t;
      (* ground truth for the conformance oracles: (kind, block height)
         -> first simulated time this node deviated that way *)
  encode_buf : Lo_codec.Writer.t;
      (* pooled wire encoder, reused across every send/broadcast *)
  tx_pool : Interner.Tx_pool.t option;
      (* the world's shared decodes and syndrome powers (simulator) *)
  mutable env : Node_env.t option; (* set once in [create] *)
}

let index t = t.index
let node_id t = t.my_id
let behavior t = t.behavior
let hooks t = t.hooks
let mempool t = t.mempool
let commitment_log t = t.log
let accountability t = t.acc
let neighbors t = t.neighbors
let set_neighbors t ns = t.neighbors <- ns
let now t = t.transport.Transport.now ()

(* Deduplicated by (kind, height): the oracles only need the first time
   each distinct deviation happened, and a silent censor would otherwise
   log every dropped message. *)
let record_deviation t ~kind ~height =
  if not (Hashtbl.mem t.deviations (kind, height)) then
    Hashtbl.add t.deviations (kind, height) (now t)

let deviations t =
  Hashtbl.fold (fun (kind, height) at acc -> (at, kind, height) :: acc)
    t.deviations []
  |> List.sort compare

let send_msg t ~dst msg =
  t.transport.Transport.send ~dst ~tag:(Messages.tag msg)
    (Messages.encode_into t.encode_buf msg)

(* One wire encoding per broadcast, shared across every neighbor —
   [Messages.encode] on a digest-bearing message is the expensive part
   of the fan-out. *)
let broadcast t msg =
  t.transport.Transport.send_many ~dsts:t.neighbors ~tag:(Messages.tag msg)
    (Messages.encode_into t.encode_buf msg)

let log_for t ~peer_index =
  match t.alt_log with
  | Some alt when Adversary.shows_fork_to t.behavior ~peer_index -> alt
  | _ -> t.log

let wire_digest t ~peer_index =
  let log = log_for t ~peer_index in
  if t.config.always_full_digests then Commitment.Log.current_digest log
  else Commitment.Log.current_digest_light log

let env t =
  match t.env with Some e -> e | None -> invalid_arg "Node: env unset"

(* Primary-log appends funnel through here so the trace sees every
   committed bundle. *)
let append_primary t ~source ~ids =
  match Commitment.Log.append t.log ~source ~ids with
  | None -> ()
  | Some d ->
      Node_env.emit (env t)
        (Lo_obs.Event.Commit_append
           {
             node = t.index;
             seq = d.Commitment.seq;
             count = d.Commitment.counter;
             ids =
               (match Commitment.Log.newest_bundle t.log with
               | Some b -> b.Commitment.Log.ids
               | None -> []);
           })

let commit_bundle t ~source ~ids =
  append_primary t ~source ~ids;
  match t.alt_log with
  | Some alt -> ignore (Commitment.Log.append alt ~source ~ids)
  | None -> ()

let expose t ~accused evidence =
  if not (String.equal accused t.my_id) then begin
    if Accountability.expose t.acc ~peer:accused evidence then begin
      Node_env.emit (env t)
        (Lo_obs.Event.Expose
           {
             node = t.index;
             peer =
               Option.value (Directory.index_of t.directory accused) ~default:(-1);
           });
      Hashtbl.replace t.seen_exposures accused ();
      broadcast t (Messages.Exposure_note evidence)
    end
  end

let make_env t =
  {
    Node_env.config = t.config;
    hooks = t.hooks;
    trace = t.transport.Transport.trace;
    my_id = t.my_id;
    my_index = t.index;
    signer = t.signer;
    rng = t.rng;
    acc = t.acc;
    primary_log = t.log;
    now = (fun () -> now t);
    send = (fun ~dst msg -> send_msg t ~dst msg);
    broadcast = (fun msg -> broadcast t msg);
    schedule = (fun ~delay fn -> t.transport.Transport.schedule ~delay fn);
    id_of = (fun i -> Directory.id_of t.directory i);
    index_of = (fun id -> Directory.index_of t.directory id);
    population = (fun () -> Directory.size t.directory);
    neighbors = (fun () -> t.neighbors);
    log_for = (fun ~peer_index -> log_for t ~peer_index);
    wire_digest = (fun ~peer_index -> wire_digest t ~peer_index);
    commit = (fun ~source ~ids -> commit_bundle t ~source ~ids);
    expose = (fun ~accused evidence -> expose t ~accused evidence);
    retry_inspections =
      (fun ~owner -> Block_pipeline.retry_inspections t.pipeline (env t) ~owner);
    record_deviation = (fun ~kind ~height -> record_deviation t ~kind ~height);
  }

let create ?tx_pool config ~transport ~rng ~directory ~signer ~neighbors
    ~behavior =
  let my_id = Signer.id signer in
  let mk_log () =
    Commitment.Log.create ~digest_history:config.digest_history ?tx_pool
      ~signer ()
  in
  let mempool = Mempool.create () in
  let content = Content_sync.create ~mempool ~adversary:behavior () in
  let tracker = Peer_tracker.create () in
  let t =
    {
      config;
      transport;
      index = transport.Transport.self;
      directory;
      signer;
      my_id;
      neighbors;
      behavior;
      rng;
      mempool;
      log = mk_log ();
      alt_log = (if Adversary.forks_log behavior then Some (mk_log ()) else None);
      acc = Accountability.create ();
      hooks = Node_env.no_hooks ();
      content;
      tracker;
      reconciler = Reconciler.create ~content ~tracker;
      pipeline =
        Block_pipeline.create ~adversary:behavior ~tracker ~content ~mempool;
      seen_exposures = Hashtbl.create 16;
      deviations = Hashtbl.create 4;
      encode_buf = Lo_codec.Writer.create ~initial_size:256 ();
      tx_pool;
      env = None;
    }
  in
  t.env <- Some (make_env t);
  t

let chain_height t = Block_pipeline.chain_height t.pipeline
let find_block t ~height = Block_pipeline.find_block t.pipeline ~height
let known_digest t ~peer = Peer_tracker.latest t.tracker ~peer
let digest_snapshots t = Peer_tracker.snapshots t.tracker
let commitment_storage_bytes t = Peer_tracker.storage_bytes t.tracker
let missing_content_count t = Content_sync.missing_count t.content

(* --- transaction intake --- *)

let ack_signing_bytes ~txid = "lo-ack" ^ txid

(* Make the equivocation fork diverge: the alternative log gets a
   self-made substitute transaction instead of the real one. *)
let equivocator_alt_tx t tx =
  Tx.create ~signer:t.signer ~fee:tx.Tx.fee ~created_at:tx.Tx.created_at
    ~payload:(Lo_crypto.Sha256.digest ("fork" ^ tx.Tx.id))

let submit_tx t tx =
  match Tx.prevalidate t.config.scheme tx with
  | Error _ -> ()
  | Ok () ->
      if Adversary.censors_tx t.behavior tx then
        record_deviation t ~kind:"censor-tx" ~height:None
      else begin
        let short = Tx.short_id tx in
        if not (Commitment.Log.contains t.log short) then begin
          append_primary t ~source:None ~ids:[ short ];
          (match t.alt_log with
          | Some alt ->
              record_deviation t ~kind:"equivocate" ~height:None;
              let alt_tx = equivocator_alt_tx t tx in
              ignore
                (Commitment.Log.append alt ~source:None
                   ~ids:[ Tx.short_id alt_tx ]);
              Content_sync.store_content t.content (env t) alt_tx
                ~from_peer:None
          | None -> ());
          Content_sync.store_content t.content (env t) tx ~from_peer:None
        end
      end

let handle_exposure t evidence =
  let accused = Evidence.accused evidence in
  if
    (not (String.equal accused t.my_id))
    && (not (Hashtbl.mem t.seen_exposures accused))
    && Evidence.verify t.config.scheme evidence
  then expose t ~accused evidence

(* --- message dispatch --- *)

(* Decoded digests arrive with a fresh copy of their owner id; collapse
   it onto the directory's canonical instance so stored snapshots share
   one string per identity (and owner comparisons hit the
   pointer-equality fast path). Same bytes, so nothing observable. *)
let canon_digest t (d : Commitment.digest) =
  let owner = Directory.canonical t.directory d.Commitment.owner in
  if owner == d.Commitment.owner then d else { d with Commitment.owner = owner }

(* A digest is compared with ours and with the owner's other digests:
   its sketch is merged with theirs and its Bloom clock diffed against
   theirs, and both raise on a shape mismatch. A signature does not
   vouch for the shape, so a digest whose sketch capacity or clock size
   differs from the deployment's is dropped at entry, like any other
   undecodable input. *)
let digest_fits (d : Commitment.digest) =
  Lo_bloom.Bloom_clock.cells d.Commitment.clock = Commitment.default_clock_cells
  &&
  match d.Commitment.sketch with
  | None -> true
  | Some s -> Lo_sketch.Sketch.capacity s = Commitment.default_sketch_capacity

let message_fits = function
  | Messages.Commit_request { digest; _ }
  | Messages.Commit_response { digest; _ }
  | Messages.Digest_share digest ->
      digest_fits digest
  | Messages.Digest_reply digests -> List.for_all digest_fits digests
  | Messages.Suspicion_note { last_digest; _ } ->
      Option.fold ~none:true ~some:digest_fits last_digest
  | Messages.Exposure_note
      ( Evidence.Conflicting_digests { older; newer }
      | Evidence.Block_bundle_violation { older; newer; _ } ) ->
      digest_fits older && digest_fits newer
  | Messages.Submit _ | Messages.Submit_ack _ | Messages.Tx_batch _
  | Messages.Digest_request _ | Messages.Suspicion_withdraw _
  | Messages.Block_announce _ ->
      true

(* Drops everything: the Fig. 6 faulty miner. Ground truth only counts
   ignored commit requests — those are the drops the requester's retry
   escalation is guaranteed to notice. *)
let note_dropped_message t ~tag =
  if String.equal tag "lo:commit-req" then
    record_deviation t ~kind:"silent-drop" ~height:None

let dispatch_message t ~bundles ~from msg =
  begin
    match msg with
    | Messages.Submit tx ->
        submit_tx t tx;
        (* Acknowledge the client (Stage I step 3). A censoring miner
           sends the "fake acknowledgement" of the paper's attacker
           model: it acks but has dropped the transaction. *)
        let ack = Signer.sign t.signer (ack_signing_bytes ~txid:tx.Tx.id) in
        send_msg t ~dst:from
          (Messages.Submit_ack { txid = tx.Tx.id; ack_signature = ack })
    | Messages.Submit_ack _ -> () (* miners ignore stray acks *)
    | Messages.Commit_request { digest; delta; want; appended } ->
        Reconciler.handle_commit_request t.reconciler (env t) ~from
          ~digest:(canon_digest t digest) ~delta ~want ~appended
    | Messages.Commit_response { digest; want; delta; appended } ->
        Reconciler.handle_commit_response t.reconciler (env t) ~from
          ~digest:(canon_digest t digest) ~want ~delta ~appended
    | Messages.Tx_batch txs ->
        Content_sync.ingest_batch t.content (env t) ~bundles ~from txs
    | Messages.Digest_share digest ->
        Peer_tracker.note_digest t.tracker (env t) (canon_digest t digest)
    | Messages.Digest_request { owner; seq } ->
        Peer_tracker.handle_digest_request t.tracker (env t) ~from
          ~owner:(Directory.canonical t.directory owner) ~seq
    | Messages.Digest_reply digests ->
        List.iter
          (fun d -> Peer_tracker.note_digest t.tracker (env t) (canon_digest t d))
          digests
    | Messages.Suspicion_note note ->
        Reconciler.handle_suspicion t.reconciler (env t) ~from note
    | Messages.Suspicion_withdraw { suspect; reporter } ->
        Reconciler.handle_withdrawal t.reconciler (env t) ~suspect ~reporter
    | Messages.Exposure_note evidence -> handle_exposure t evidence
    | Messages.Block_announce block ->
        Block_pipeline.accept_block t.pipeline (env t) block ~from
  end

(* Undecodable bytes, and digests of the wrong shape, are discarded,
   but never silently: the drop is a counted trace event naming the
   sender. *)
let note_malformed t ~from ~tag =
  Node_env.emit (env t) (Lo_obs.Event.Malformed { node = t.index; src = from; tag })

let handle_message t ~from ~tag payload =
  if Adversary.drops_all_messages t.behavior then note_dropped_message t ~tag
  else
    match Messages.decode ?tx_pool:t.tx_pool payload with
    | exception Lo_codec.Reader.Malformed _ -> note_malformed t ~from ~tag
    | msg when not (message_fits msg) -> note_malformed t ~from ~tag
    | msg -> dispatch_message t ~bundles:`Per_id ~from msg

(* The zero-copy wire path: decode straight out of a frame view over
   the receive buffer. Same containment and dispatch as
   [handle_message]; a [Tx_batch] commits its fresh ids as one bundle
   per frame instead of one per id. *)
let handle_message_view t ~from ~tag r =
  if Adversary.drops_all_messages t.behavior then note_dropped_message t ~tag
  else
    match Messages.decode_reader r with
    | exception Lo_codec.Reader.Malformed _ -> note_malformed t ~from ~tag
    | msg when not (message_fits msg) -> note_malformed t ~from ~tag
    | msg -> dispatch_message t ~bundles:`Per_frame ~from msg

(* --- periodic timers --- *)

let rec digest_share_round t =
  (match t.neighbors with
  | [] -> ()
  | ns ->
      let target = Rng.pick_list t.rng ns in
      let target_id = Directory.id_of t.directory target in
      send_msg t ~dst:target
        (Messages.Digest_share
           (Commitment.Log.current_digest (log_for t ~peer_index:target)));
      (* Transitive commitment gossip: relay recently received
         third-party digests — this is what lets equivocation forks meet
         at a correct node. Forks re-converge as sets once both sides'
         transactions spread, so only snapshots from the divergence
         window are conflicting evidence; relaying digests while they
         are hot maximises the chance that both forks' window snapshots
         collide somewhere. *)
      (match Peer_tracker.recent_digests t.tracker ~exclude_owner:target_id with
      | [] -> ()
      | pool ->
          List.iter
            (fun d -> send_msg t ~dst:target (Messages.Digest_share d))
            (Rng.sample_without_replacement t.rng 2 pool)));
  t.transport.Transport.schedule ~delay:t.config.digest_share_period (fun () ->
      digest_share_round t)

(* Crash recovery (the restart path): re-announce our commitment head to
   every neighbour, ask each for the snapshots we may have missed while
   down (via the stored head's successor), invalidate stale in-flight
   reconciliation state and force a fresh exchange — so the node resumes
   from its persisted log position instead of desyncing forever. *)
let handle_restart t =
  Reconciler.on_restart t.reconciler (env t);
  List.iter
    (fun peer ->
      send_msg t ~dst:peer
        (Messages.Digest_share
           (Commitment.Log.current_digest (log_for t ~peer_index:peer)));
      let peer_id = Directory.id_of t.directory peer in
      let next_seq =
        match Peer_tracker.latest t.tracker ~peer:peer_id with
        | Some d -> d.Commitment.seq + 1
        | None -> 1
      in
      send_msg t ~dst:peer
        (Messages.Digest_request { owner = peer_id; seq = next_seq });
      Reconciler.reconcile_with ~force:true t.reconciler (env t)
        ~peer_index:peer)
    t.neighbors

let start t =
  (* Subscribe by protocol prefix so other protocols can share the
     node's transport endpoint. *)
  t.transport.Transport.subscribe ~proto:"lo" (fun ~from ~tag payload ->
      handle_message t ~from ~tag payload);
  if not (Adversary.drops_all_messages t.behavior) then begin
    t.transport.Transport.set_restart_handler (fun () -> handle_restart t);
    t.transport.Transport.schedule
      ~delay:(Rng.float t.rng t.config.reconcile_period)
      (fun () -> Reconciler.round t.reconciler (env t));
    t.transport.Transport.schedule
      ~delay:(Rng.float t.rng t.config.digest_share_period)
      (fun () -> digest_share_round t)
  end

let build_block t ~policy = Block_pipeline.build_block t.pipeline (env t) ~policy
