type t = {
  mempool : Mempool.t;
  missing : (int, unit) Hashtbl.t; (* committed ids lacking content *)
  adversary : Adversary.t;
}

let create ~mempool ~adversary () =
  { mempool; missing = Hashtbl.create 64; adversary }

let missing_count t = Hashtbl.length t.missing

let want_list t =
  let acc = ref [] and count = ref 0 in
  (try
     Hashtbl.iter
       (fun id () ->
         if !count >= Node_env.max_delta then raise Exit;
         acc := id :: !acc;
         incr count)
       t.missing
   with Exit -> ());
  !acc

let commit_fresh t (env : Node_env.t) ~dedup ~known ~source ids =
  let fresh = List.filter (fun id -> not (known id)) ids in
  let fresh = if dedup then List.sort_uniq Int.compare fresh else fresh in
  if fresh <> [] then begin
    env.commit ~source:(Some source) ~ids:fresh;
    List.iter
      (fun id ->
        if not (Mempool.mem_short t.mempool id) then
          Hashtbl.replace t.missing id ())
      fresh
  end;
  fresh

let serve t ids =
  List.filter_map
    (fun id ->
      Option.map (fun e -> e.Mempool.tx) (Mempool.find_short t.mempool id))
    ids

let stored t (env : Node_env.t) (e : Mempool.entry) =
  Hashtbl.remove t.missing e.short_id;
  env.hooks.on_tx_content e.tx

let store_content t (env : Node_env.t) tx ~from_peer =
  match Mempool.add t.mempool ~tx ~received_at:(env.now ()) ~from_peer with
  | `Duplicate -> ()
  | `Added e -> stored t env e

let ingest_batch t (env : Node_env.t) ~from txs =
  let source = Some (env.id_of from) in
  let keep tx =
    if Adversary.censors_tx t.adversary tx then begin
      env.record_deviation ~kind:"censor-content" ~height:None;
      false
    end
    else true
  in
  let result =
    Mempool.ingest_batch ~keep ~scheme:env.config.scheme
      ~known:(Commitment.Log.contains env.primary_log)
      ~commit:(fun ids -> env.commit ~source ~ids)
      ~received_at:(env.now ()) ~from_peer:source t.mempool txs
  in
  List.iter (stored t env) result.Mempool.accepted
