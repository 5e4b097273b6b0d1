module Rng = Lo_net.Rng
module Sketch = Lo_sketch.Sketch

type pending = {
  mutable waiting : bool;
  mutable retries : int;
  mutable gen : int;
  mutable unresponsive : int;
      (* consecutive timeout escalations; a score >= demote_after keeps
         the peer out of routine round sampling (demotion, not blame) *)
}

type t = {
  content : Content_sync.t;
  tracker : Peer_tracker.t;
  pending : (string, pending) Hashtbl.t;
  seen_suspicions : (string * string, unit) Hashtbl.t;
}

let create ~content ~tracker =
  {
    content;
    tracker;
    pending = Hashtbl.create 32;
    seen_suspicions = Hashtbl.create 16;
  }

let pending_for t peer_id =
  match Hashtbl.find_opt t.pending peer_id with
  | Some p -> p
  | None ->
      let p = { waiting = false; retries = 0; gen = 0; unresponsive = 0 } in
      Hashtbl.add t.pending peer_id p;
      p

let unresponsive_score t peer_id =
  match Hashtbl.find_opt t.pending peer_id with
  | Some p -> p.unresponsive
  | None -> 0

(* Exponential backoff with seeded jitter: timeout * backoff^retries,
   perturbed by +/- retry_jitter so probes desynchronise after a
   partition heals instead of stampeding in lockstep. *)
let retry_delay (env : Node_env.t) ~retries =
  let base =
    env.config.request_timeout
    *. (env.config.retry_backoff ** float_of_int retries)
  in
  let jitter =
    if env.config.retry_jitter <= 0. then 0.
    else base *. env.config.retry_jitter *. (Rng.float env.rng 2.0 -. 1.0)
  in
  Float.max 0.05 (base +. jitter)

(* --- trace events --- *)

let span_key peer_index = "recon:" ^ string_of_int peer_index

let emit_span_begin (env : Node_env.t) ~peer_index =
  Node_env.emit env
    (Lo_obs.Event.Span_begin { node = env.my_index; key = span_key peer_index })

let emit_span_end (env : Node_env.t) ~peer_index ~ok =
  Node_env.emit env
    (Lo_obs.Event.Span_end
       { node = env.my_index; key = span_key peer_index; ok })

let peer_of (env : Node_env.t) peer_id =
  Option.value (env.index_of peer_id) ~default:(-1)

let emit_suspect (env : Node_env.t) peer_id =
  Node_env.emit env
    (Lo_obs.Event.Suspect { node = env.my_index; peer = peer_of env peer_id })

let emit_clear (env : Node_env.t) peer_id =
  Node_env.emit env
    (Lo_obs.Event.Clear { node = env.my_index; peer = peer_of env peer_id })

(* What the peer is (probably) missing from us, and — when the stored
   digest carries a sketch — what we are missing from it. The common
   path is the Bloom-clock comparison of Sec. 4.2: we offer the ids in
   cells where our clock exceeds the peer's; the responder drops
   duplicates. A full stored sketch enables the exact set difference
   (skipped for very large gaps, where explicit clock-guided offers
   converge faster than an expensive decode). *)
let clock_delta ~log my_digest peer_digest =
  let surplus =
    Lo_bloom.Bloom_clock.diff_cells my_digest.Commitment.clock
      peer_digest.Commitment.clock
    |> List.filter (fun cell ->
           Lo_bloom.Bloom_clock.get my_digest.Commitment.clock cell
           > Lo_bloom.Bloom_clock.get peer_digest.Commitment.clock cell)
  in
  (* Most recent first: those are the likeliest gaps. *)
  (Commitment.Log.newest_in_cells log surplus Node_env.max_delta, [])

let delta_for ~log peer_latest =
  let my_digest = Commitment.Log.current_digest log in
  match peer_latest with
  | None -> (Commitment.Log.oldest log Node_env.max_delta, [])
  | Some peer_digest -> begin
      match (my_digest.Commitment.sketch, peer_digest.Commitment.sketch) with
      | Some mine_sketch, Some peer_sketch -> begin
          let estimate =
            Lo_bloom.Bloom_clock.estimate_difference
              my_digest.Commitment.clock peer_digest.Commitment.clock
          in
          if estimate > 128 then clock_delta ~log my_digest peer_digest
          else
            match Commitment.sketch_difference ~estimate mine_sketch peer_sketch with
            | Ok diff ->
                let mine, theirs =
                  List.partition (Commitment.Log.contains log) diff
                in
                (List.filteri (fun i _ -> i < Node_env.max_delta) mine, theirs)
            | Error `Decode_failure ->
                (* Degrade to offering the most recent ids; later rounds
                   converge (the paper splits the sketch instead). *)
                (Commitment.Log.newest log Node_env.max_delta, [])
        end
      | _ -> clock_delta ~log my_digest peer_digest
    end

let rec reconcile_with ?(force = false) t (env : Node_env.t) ~peer_index =
  if peer_index <> env.my_index then begin
    let peer_id = env.id_of peer_index in
    if not (Accountability.is_exposed env.acc peer_id) then begin
      let p = pending_for t peer_id in
      if not p.waiting then begin
        let log = env.log_for ~peer_index in
        let delta, learned =
          delta_for ~log (Peer_tracker.latest t.tracker ~peer:peer_id)
        in
        (* Commit to the ids the peer committed to and we lack
           (processing them after everything we know, Alg. 1 line 22). *)
        let fresh =
          Content_sync.commit_fresh t.content env ~dedup:false
            ~known:(Commitment.Log.contains env.primary_log)
            ~source:peer_id learned
        in
        let my_digest = env.wire_digest ~peer_index in
        let want = Content_sync.want_list t.content in
        if force || delta <> [] || want <> []
           || Peer_tracker.latest t.tracker ~peer:peer_id = None
        then begin
          emit_span_begin env ~peer_index;
          p.waiting <- true;
          p.gen <- p.gen + 1;
          let gen = p.gen in
          env.send ~dst:peer_index
            (Messages.Commit_request
               { digest = my_digest; delta; want; appended = fresh });
          env.schedule
            ~delay:(retry_delay env ~retries:p.retries)
            (fun () -> request_timeout t env ~peer_index ~peer:peer_id ~gen)
        end
      end
    end
  end

and request_timeout t (env : Node_env.t) ~peer_index ~peer:peer_id ~gen =
  let p = pending_for t peer_id in
  if p.waiting && p.gen = gen then begin
    p.waiting <- false;
    p.retries <- p.retries + 1;
    emit_span_end env ~peer_index ~ok:false;
    if p.retries <= env.config.max_retries then
      reconcile_with ~force:true t env ~peer_index
    else begin
      p.retries <- 0;
      p.unresponsive <- p.unresponsive + 1;
      if not (Accountability.is_suspected env.acc peer_id) then begin
        Accountability.suspect env.acc ~peer:peer_id ~now:(env.now ())
          ~reason:"request timeout";
        emit_suspect env peer_id;
        let last_digest = Peer_tracker.latest t.tracker ~peer:peer_id in
        env.broadcast
          (Messages.Suspicion_note
             {
               suspect = peer_id;
               reporter = env.my_id;
               last_digest;
               reason = "request timeout";
             })
      end
    end
  end

let resolve_pending t (env : Node_env.t) ~peer:peer_id =
  let p = pending_for t peer_id in
  let was_waiting = p.waiting in
  p.waiting <- false;
  p.retries <- 0;
  p.unresponsive <- 0;
  if was_waiting then begin
    match env.index_of peer_id with
    | Some peer_index -> emit_span_end env ~peer_index ~ok:true
    | None -> ()
  end;
  if Accountability.is_suspected env.acc peer_id then begin
    Accountability.clear_suspicion env.acc ~peer:peer_id;
    emit_clear env peer_id;
    (* The suspect answered us: retract our blame so the rest of the
       network does not keep an unresolvable suspicion on an honest
       node (temporal accuracy, Sec. 3.2). *)
    env.broadcast
      (Messages.Suspicion_withdraw { suspect = peer_id; reporter = env.my_id })
  end

let handle_withdrawal t (env : Node_env.t) ~suspect ~reporter:_ =
  if not (String.equal suspect env.my_id) then begin
    let p = pending_for t suspect in
    p.unresponsive <- 0;
    if Accountability.is_suspected env.acc suspect then begin
      Accountability.clear_suspicion env.acc ~peer:suspect;
      emit_clear env suspect;
      (* [seen_suspicions] is deliberately NOT purged here: stale
         suspicion notes for this incident may still be in flight, and
         re-accepting them would re-raise the suspicion and chase the
         withdrawal around the network forever. The per-(suspect,
         reporter) dedup stays; independent observation (each peer's
         own timeout escalation) still spreads any genuine new blame. *)
      (* Relay only on a state change, so the gossip terminates. *)
      env.broadcast
        (Messages.Suspicion_withdraw { suspect; reporter = env.my_id })
    end
  end

let handle_commit_request t (env : Node_env.t) ~from ~digest ~delta ~want
    ~appended =
  Peer_tracker.note_digest t.tracker env digest;
  Peer_tracker.note_appended t.tracker ~owner:digest.Commitment.owner
    ~seq:digest.Commitment.seq appended;
  let from_id = digest.Commitment.owner in
  (* Requests are judged against the log we show this peer (equivocators
     fork), so the fork stays internally consistent. *)
  let log = env.log_for ~peer_index:from in
  let unknown =
    Content_sync.commit_fresh t.content env ~dedup:true
      ~known:(Commitment.Log.contains log) ~source:from_id delta
  in
  let log = env.log_for ~peer_index:from in
  let my_digest = env.wire_digest ~peer_index:from in
  let my_want = Content_sync.want_list t.content in
  (* The reverse direction: what the requester is missing from us,
     judged against the digest it just sent. *)
  let reverse_delta, _ = delta_for ~log (Some digest) in
  env.send ~dst:from
    (Messages.Commit_response
       {
         digest = my_digest;
         want = my_want;
         delta = reverse_delta;
         appended = unknown;
       });
  (* Content the requester asked for and we can serve. *)
  let have = Content_sync.serve t.content want in
  if have <> [] then env.send ~dst:from (Messages.Tx_batch have)

let handle_commit_response t (env : Node_env.t) ~from ~digest ~want ~delta
    ~appended =
  resolve_pending t env ~peer:digest.Commitment.owner;
  Peer_tracker.note_digest t.tracker env digest;
  Peer_tracker.note_appended t.tracker ~owner:digest.Commitment.owner
    ~seq:digest.Commitment.seq appended;
  let have = Content_sync.serve t.content want in
  if have <> [] then env.send ~dst:from (Messages.Tx_batch have);
  (* Commit to the ids the responder says we are missing, then fetch
     their content right away. *)
  let fresh =
    Content_sync.commit_fresh t.content env ~dedup:true
      ~known:(Commitment.Log.contains env.primary_log)
      ~source:digest.Commitment.owner delta
  in
  if fresh <> [] then begin
    let my_digest = env.wire_digest ~peer_index:from in
    env.send ~dst:from
      (Messages.Commit_request
         { digest = my_digest; delta = []; want = fresh; appended = fresh })
  end

let handle_suspicion t (env : Node_env.t) ~from note =
  let { Messages.suspect; reporter; last_digest; reason = _ } = note in
  if String.equal suspect env.my_id then begin
    (* Publicly answer: share our current (full) commitment with both
       parties. *)
    let d = Commitment.Log.current_digest env.primary_log in
    (match env.index_of reporter with
    | Some r -> env.send ~dst:r (Messages.Digest_share d)
    | None -> ());
    env.send ~dst:from (Messages.Digest_share d)
  end
  else if not (Hashtbl.mem t.seen_suspicions (suspect, reporter)) then begin
    Hashtbl.add t.seen_suspicions (suspect, reporter) ();
    Option.iter (Peer_tracker.note_digest t.tracker env) last_digest;
    (* If we know a newer commitment, give it to the reporter (Fig. 4). *)
    (match
       ( Peer_tracker.latest t.tracker ~peer:suspect,
         last_digest,
         env.index_of reporter )
     with
    | Some mine, Some theirs, Some r
      when mine.Commitment.seq > theirs.Commitment.seq ->
        env.send ~dst:r (Messages.Digest_reply [ mine ])
    | _ -> ());
    if not (Accountability.is_suspected env.acc suspect) then begin
      Accountability.suspect env.acc ~peer:suspect ~now:(env.now ())
        ~reason:"gossiped suspicion";
      emit_suspect env suspect
    end;
    env.broadcast (Messages.Suspicion_note note);
    (* Probe the suspect ourselves so a correct node can clear itself. *)
    match env.index_of suspect with
    | Some s -> reconcile_with ~force:true t env ~peer_index:s
    | None -> ()
  end

let rec round t (env : Node_env.t) =
  let candidates =
    List.filter
      (fun i -> not (Accountability.is_exposed env.acc (env.id_of i)))
      (env.neighbors ())
  in
  (* Flapping peers (repeated timeout escalations) are demoted out of
     routine sampling — they waste the round's fanout budget — but are
     still probed occasionally so they can redeem themselves. *)
  let responsive, flapping =
    List.partition
      (fun i -> unresponsive_score t (env.id_of i) < Node_env.demote_after)
      candidates
  in
  let pool = if responsive = [] then flapping else responsive in
  let chosen =
    Rng.sample_without_replacement env.rng Node_env.reconcile_fanout pool
  in
  List.iter (fun i -> reconcile_with t env ~peer_index:i) chosen;
  (match flapping with
  | [] -> ()
  | _ when responsive = [] -> ()
  | _ ->
      if Rng.int env.rng 4 = 0 then
        reconcile_with ~force:true t env
          ~peer_index:(Rng.pick_list env.rng flapping));
  (* Keep probing one suspected peer per round so that a recovered node
     is eventually cleared (temporal accuracy, Sec. 3.2). *)
  (match Accountability.suspected_peers env.acc with
  | [] -> ()
  | suspected -> begin
      let peer, _ = Rng.pick_list env.rng suspected in
      match env.index_of peer with
      | Some i -> reconcile_with ~force:true t env ~peer_index:i
      | None -> ()
    end);
  env.schedule ~delay:env.config.reconcile_period (fun () -> round t env)

(* Crash recovery: every in-flight request state is stale (replies were
   lost while down), so invalidate the armed timers and start over; then
   force a fresh exchange with every peer we still suspect, so stale
   suspicions raised just before the crash get re-examined. *)
let on_restart t (env : Node_env.t) =
  Hashtbl.iter
    (fun peer_id p ->
      if p.waiting then begin
        (* Close the span the crash orphaned, or the next round's
           Span_begin for the same key would read as a double-begin. *)
        match env.index_of peer_id with
        | Some peer_index -> emit_span_end env ~peer_index ~ok:false
        | None -> ()
      end;
      p.waiting <- false;
      p.retries <- 0;
      p.gen <- p.gen + 1)
    t.pending;
  List.iter
    (fun (peer, _) ->
      match env.index_of peer with
      | Some i -> reconcile_with ~force:true t env ~peer_index:i
      | None -> ())
    (Accountability.suspected_peers env.acc)
