module Rng = Lo_net.Rng

type t = {
  adversary : Adversary.t;
  tracker : Peer_tracker.t;
  content : Content_sync.t;
  mempool : Mempool.t;
  blocks_by_height : (int, Block.t) Hashtbl.t;
  mutable head : Block.t option;
  mutable head_hash : string;
  seen_blocks : (string, unit) Hashtbl.t;
  settled : (int, int) Hashtbl.t; (* short id -> block height *)
  pending_inspections : (string, (string * Block.t) list ref) Hashtbl.t;
      (* by creator: (block hash, block) *)
  inspection_retries : (string, int) Hashtbl.t; (* by block hash *)
  requested_digests : (string * int, unit) Hashtbl.t; (* (owner, seq) *)
}

let create ~adversary ~tracker ~content ~mempool =
  {
    adversary;
    tracker;
    content;
    mempool;
    blocks_by_height = Hashtbl.create 16;
    head = None;
    head_hash = Block.genesis_hash;
    seen_blocks = Hashtbl.create 16;
    settled = Hashtbl.create 256;
    pending_inspections = Hashtbl.create 4;
    inspection_retries = Hashtbl.create 8;
    requested_digests = Hashtbl.create 32;
  }

let head_hash t = t.head_hash

let chain_height t = match t.head with None -> 0 | Some b -> b.Block.height
let find_block t ~height = Hashtbl.find_opt t.blocks_by_height height

(* Adopt a block into the local chain view and settle its ids. A block
   is hashed once, where it enters the node ([accept_block],
   [build_block]); [hash] travels with it from there. *)
let admit t (env : Node_env.t) (block : Block.t) ~hash =
  if not (Hashtbl.mem t.blocks_by_height block.height) then begin
    Hashtbl.add t.blocks_by_height block.height block;
    (match t.head with
    | Some head when head.Block.height >= block.height -> ()
    | _ ->
        t.head <- Some block;
        t.head_hash <- hash);
    List.iter
      (fun txid ->
        let id = Short_id.of_txid txid in
        if not (Hashtbl.mem t.settled id) then
          Hashtbl.add t.settled id block.height)
      block.txids;
    Node_env.emit env
      (Lo_obs.Event.Block_accept
         {
           node = env.my_index;
           creator = Option.value (env.index_of block.creator) ~default:(-1);
           height = block.height;
           bundles =
             List.map
               (fun (seq, txids) -> (seq, List.map Short_id.of_txid txids))
               (Block.bundle_txids block);
           omitted = List.map fst block.omissions;
           appendix = block.appendix;
         });
    env.hooks.on_block_accepted block
  end

(* --- inspection --- *)

let knowledge_for t creator =
  {
    Inspector.bundle_of_seq =
      (fun seq -> Peer_tracker.bundle_of_seq t.tracker ~owner:creator ~seq);
    find_tx =
      (fun short_id ->
        Option.map (fun e -> e.Mempool.tx) (Mempool.find_short t.mempool short_id));
    settled_height = (fun short_id -> Hashtbl.find_opt t.settled short_id);
  }

let evidence_for t (block : Block.t) violation =
  let pair seq = Peer_tracker.digest_pair t.tracker ~owner:block.creator ~seq in
  match violation with
  | Inspector.Reordering { bundle_seq } | Inspector.Injection { bundle_seq = Some bundle_seq; _ } ->
      Option.map
        (fun (older, newer) ->
          Evidence.Block_bundle_violation { block; older; newer; omitted_tx = None })
        (pair bundle_seq)
  | Inspector.Blockspace_censorship { bundle_seq; short_id }
  | Inspector.False_omission_claim { bundle_seq; short_id } -> begin
      match (pair bundle_seq, Mempool.find_short t.mempool short_id) with
      | Some (older, newer), Some entry ->
          Some
            (Evidence.Block_bundle_violation
               { block; older; newer; omitted_tx = Some entry.Mempool.tx })
      | _ -> None
    end
  | Inspector.Injection { bundle_seq = None; _ } | Inspector.Bad_structure _ ->
      None

let rec inspect_block t (env : Node_env.t) (block : Block.t) ~hash ~from =
  if String.equal block.creator env.my_id then ()
  else begin
    let report = Inspector.inspect block (knowledge_for t block.creator) in
    let need_digests = ref [] in
    let violation_kind = function
      | Inspector.Bad_structure _ -> "bad-structure"
      | Inspector.Injection _ -> "injection"
      | Inspector.Reordering _ -> "reordering"
      | Inspector.Blockspace_censorship _ -> "blockspace-censorship"
      | Inspector.False_omission_claim _ -> "false-omission"
    in
    List.iter
      (fun violation ->
        env.hooks.on_violation violation ~block;
        Node_env.emit env
          (Lo_obs.Event.Violation
             {
               node = env.my_index;
               peer = Option.value (env.index_of block.creator) ~default:(-1);
               kind = violation_kind violation;
             });
        match evidence_for t block violation with
        | Some evidence ->
            if Evidence.verify env.config.scheme evidence then
              env.expose ~accused:block.creator evidence
        | None -> begin
            match violation with
            | Inspector.Reordering { bundle_seq }
            | Inspector.Injection { bundle_seq = Some bundle_seq; _ }
            | Inspector.Blockspace_censorship { bundle_seq; _ }
            | Inspector.False_omission_claim { bundle_seq; _ } ->
                need_digests := bundle_seq :: !need_digests
            | Inspector.Injection { bundle_seq = None; _ }
            | Inspector.Bad_structure _ -> ()
          end)
      report.violations;
    (* Unverified bundles are audited by a random sample of inspectors
       (expected ~8 network-wide) rather than by everyone — the audit
       fetches the digest pair and a detected violation is gossiped to
       the rest. Violations always fetch (they need evidence). *)
    let audit_probability =
      Float.min 1.0 (8.0 /. float_of_int (env.population ()))
    in
    let sampled =
      List.filter
        (fun _ -> Rng.float env.rng 1.0 < audit_probability)
        report.unverified_bundles
    in
    match List.sort_uniq Int.compare (sampled @ !need_digests) with
    | [] -> ()
    | seqs ->
        (* Remember the block, then fetch the digest pairs we lack. *)
        let cell =
          match Hashtbl.find_opt t.pending_inspections block.creator with
          | Some cell -> cell
          | None ->
              let cell = ref [] in
              Hashtbl.add t.pending_inspections block.creator cell;
              cell
        in
        if not (List.exists (fun (h, _) -> String.equal h hash) !cell) then
          cell := (hash, block) :: !cell;
        let targets =
          from
          :: (match env.index_of block.creator with Some i -> [ i ] | None -> [])
        in
        List.iter
          (fun seq ->
            List.iter
              (fun seq ->
                if not (Hashtbl.mem t.requested_digests (block.creator, seq))
                then begin
                  Hashtbl.add t.requested_digests (block.creator, seq) ();
                  List.iter
                    (fun dst ->
                      env.send ~dst
                        (Messages.Digest_request { owner = block.creator; seq }))
                    targets
                end)
              [ seq; seq - 1 ])
          seqs
  end

and retry_inspections t (env : Node_env.t) ~owner =
  match Hashtbl.find_opt t.pending_inspections owner with
  | None -> ()
  | Some cell ->
      let blocks = !cell in
      cell := [];
      Hashtbl.remove t.pending_inspections owner;
      List.iter
        (fun (hash, b) ->
          let tries =
            Option.value (Hashtbl.find_opt t.inspection_retries hash) ~default:0
          in
          if tries < 5 then begin
            Hashtbl.replace t.inspection_retries hash (tries + 1);
            inspect_block t env b ~hash ~from:env.my_index
          end)
        blocks

(* --- acceptance --- *)

let accept_block t (env : Node_env.t) (block : Block.t) ~from =
  let hash = Block.hash block in
  if not (Hashtbl.mem t.seen_blocks hash) then begin
    Hashtbl.add t.seen_blocks hash ();
    if
      Block.verify_signature env.config.scheme block
      && Block.structure_ok block
      && not
           (env.config.reject_exposed_blocks
           && Accountability.is_exposed env.acc block.creator)
    then begin
      admit t env block ~hash;
      env.broadcast (Messages.Block_announce block);
      inspect_block t env block ~hash ~from
    end
  end

(* --- building --- *)

let build_block t (env : Node_env.t) ~policy =
  let bundles =
    List.map
      (fun b -> (b.Commitment.Log.seq, b.Commitment.Log.ids))
      (Commitment.Log.bundles env.primary_log)
  in
  let input =
    {
      Policy.bundles;
      find_tx =
        (fun id ->
          Option.map (fun e -> e.Mempool.tx) (Mempool.find_short t.mempool id));
      is_settled = (fun id -> Hashtbl.mem t.settled id);
      fee_threshold = env.config.fee_threshold;
      max_txs = env.config.max_block_txs;
      seed = head_hash t;
    }
  in
  let out = Policy.build policy input in
  let ctx =
    {
      Adversary.find_txid =
        (fun txid ->
          Option.map (fun e -> e.Mempool.tx) (Mempool.find_id t.mempool txid));
      forge_tx =
        (fun () ->
          let tx =
            Tx.create ~signer:env.signer ~fee:1_000_000 ~created_at:(env.now ())
              ~payload:
                (Lo_crypto.Sha256.digest
                   ("inject" ^ string_of_int (Rng.int env.rng max_int)))
          in
          Content_sync.store_content t.content env tx ~from_peer:None;
          tx);
    }
  in
  let honest_out = out in
  let out = Adversary.tamper_block t.adversary ctx out in
  (* Ground truth for the conformance oracles: a block-stage deviation
     happened iff tampering actually changed the honest output. *)
  (if
     out.Policy.txids <> honest_out.Policy.txids
     || out.Policy.bundle_sizes <> honest_out.Policy.bundle_sizes
   then
     let kind =
       match t.adversary with
       | Adversary.Block_injector -> Some "block-inject"
       | Adversary.Block_reorderer -> Some "block-reorder"
       | Adversary.Blockspace_censor _ -> Some "block-censor"
       | _ -> None
     in
     match kind with
     | Some kind ->
         env.record_deviation ~kind ~height:(Some (chain_height t + 1))
     | None -> ());
  if out.Policy.txids = [] then None
  else begin
    let start_seq, commit_seq, bundle_sizes, appendix =
      match policy with
      | Policy.Lo_fifo ->
          ( out.Policy.start_seq,
            out.Policy.covered_seq,
            out.Policy.bundle_sizes,
            List.length out.Policy.txids
            - List.fold_left ( + ) 0 out.Policy.bundle_sizes )
      | Policy.Highest_fee -> (0, 0, [], List.length out.Policy.txids)
    in
    let block =
      Block.create ~signer:env.signer ~height:(chain_height t + 1)
        ~prev_hash:(head_hash t) ~start_seq ~commit_seq
        ~fee_threshold:env.config.fee_threshold
        ~txids:out.Policy.txids ~bundle_sizes ~appendix
        ~omissions:out.Policy.omissions ~timestamp:(env.now ())
    in
    (* Accept locally, then announce. *)
    let hash = Block.hash block in
    Hashtbl.add t.seen_blocks hash ();
    admit t env block ~hash;
    env.broadcast (Messages.Block_announce block);
    Some block
  end
