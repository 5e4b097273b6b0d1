type t = {
  mempool : Mempool.t;
  missing : (int, float) Hashtbl.t; (* committed ids lacking content *)
  adversary : Adversary.t;
}

let create ~mempool ~adversary () =
  { mempool; missing = Hashtbl.create 64; adversary }

let missing_count t = Hashtbl.length t.missing

let want_list t =
  let acc = ref [] and count = ref 0 in
  (try
     Hashtbl.iter
       (fun id _ ->
         if !count >= Node_env.max_delta then raise Exit;
         acc := id :: !acc;
         incr count)
       t.missing
   with Exit -> ());
  !acc

let mark_missing t (env : Node_env.t) ids =
  List.iter
    (fun id ->
      if not (Mempool.mem_short t.mempool id) then
        Hashtbl.replace t.missing id (env.now ()))
    ids

let commit_fresh t (env : Node_env.t) ~dedup ~known ~source ids =
  let fresh = List.filter (fun id -> not (known id)) ids in
  let fresh = if dedup then List.sort_uniq Int.compare fresh else fresh in
  if fresh <> [] then begin
    env.commit ~source:(Some source) ~ids:fresh;
    mark_missing t env fresh
  end;
  fresh

let serve t ids =
  List.filter_map
    (fun id ->
      Option.map (fun e -> e.Mempool.tx) (Mempool.find_short t.mempool id))
    ids

let store_content t (env : Node_env.t) tx ~from_peer =
  let short = Tx.short_id tx in
  if not (Mempool.mem_short t.mempool short) then begin
    match Mempool.add t.mempool ~tx ~received_at:(env.now ()) ~from_peer with
    | `Duplicate -> ()
    | `Added _ ->
        Hashtbl.remove t.missing short;
        env.hooks.on_tx_content tx
  end

(* Batched Stage II admission: one shared signature-verification pass
   and ONE commitment bundle (one signed digest) per batch, instead of
   one per transaction. Which transactions land in the mempool and
   which ids reach the commitment log match [ingest_batch] exactly;
   only the bundle granularity — and hence the digest's seq — differs,
   which is why the DES keeps the per-tx path (its golden traces pin
   per-tx bundles) while the live backend ingests through this one. *)
let ingest_batch_bulk t (env : Node_env.t) ~from txs =
  let from_id = env.id_of from in
  let keep tx =
    if Adversary.censors_tx t.adversary tx then begin
      env.record_deviation ~kind:"censor-content" ~height:None;
      false
    end
    else true
  in
  let result =
    Mempool.ingest_batch ~keep ~scheme:env.config.scheme
      ~known:(fun short -> Commitment.Log.contains env.primary_log short)
      ~commit:(fun ids -> env.commit ~source:(Some from_id) ~ids)
      ~received_at:(env.now ()) ~from_peer:(Some from_id) t.mempool txs
  in
  List.iter
    (fun e ->
      Hashtbl.remove t.missing e.Mempool.short_id;
      env.hooks.on_tx_content e.Mempool.tx)
    result.Mempool.accepted

let ingest_batch t (env : Node_env.t) ~from txs =
  let from_id = env.id_of from in
  List.iter
    (fun tx ->
      match Tx.prevalidate env.config.scheme tx with
      | Error _ -> ()
      | Ok () ->
          if Adversary.censors_tx t.adversary tx then
            env.record_deviation ~kind:"censor-content" ~height:None
          else begin
            let short = Tx.short_id tx in
            if not (Commitment.Log.contains env.primary_log short) then
              env.commit ~source:(Some from_id) ~ids:[ short ];
            store_content t env tx ~from_peer:(Some from_id)
          end)
    txs
