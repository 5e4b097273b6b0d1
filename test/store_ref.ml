(* Reference stores: the node's stores as they were when some facts were
   kept twice. The mempool indexes every transaction by full id and by
   short id; the commitment log keeps a bundle list next to a digest
   table keyed by seq, with the current digest apart; the peer tracker
   keeps each peer's snapshots in a hash table, finds a new snapshot's
   neighbours by scanning it, and keeps the latest snapshot apart. The
   tests hold [Mempool], [Commitment.Log] and [Peer_tracker] to these
   over random operation sequences. *)

open Lo_core
module Rng = Lo_net.Rng
module Sketch = Lo_sketch.Sketch
module Bloom_clock = Lo_bloom.Bloom_clock

module Mempool_ref = struct
  type t = {
    by_short : (int, Tx.t) Hashtbl.t;
    by_id : (string, Tx.t) Hashtbl.t;
  }

  let create () = { by_short = Hashtbl.create 16; by_id = Hashtbl.create 16 }
  let size t = Hashtbl.length t.by_short

  let add t tx =
    let short = Tx.short_id tx in
    if Hashtbl.mem t.by_short short then `Duplicate
    else begin
      Hashtbl.add t.by_short short tx;
      Hashtbl.add t.by_id tx.Tx.id tx;
      `Added
    end

  let find_short t short = Hashtbl.find_opt t.by_short short
  let find_id t id = Hashtbl.find_opt t.by_id id
end

module Log_ref = struct
  type t = {
    signer : Lo_crypto.Signer.t;
    digest_history : int;
    known : (int, unit) Hashtbl.t;
    clock : Bloom_clock.t;
    sketch : Sketch.t;
    mutable counter : int;
    mutable seq : int;
    mutable bundles_rev : (int * int list) list;
    mutable current : Commitment.digest;
    digest_index : (int, Commitment.digest) Hashtbl.t;
  }

  let sign_snapshot t =
    let w = Lo_codec.Writer.create () in
    Sketch.encode w t.sketch;
    let unsigned =
      {
        Commitment.owner = Lo_crypto.Signer.id t.signer;
        seq = t.seq;
        counter = t.counter;
        clock = Bloom_clock.copy t.clock;
        sketch_hash = Lo_crypto.Sha256.digest (Lo_codec.Writer.contents w);
        sketch = Some (Sketch.copy t.sketch);
        signature = "";
      }
    in
    {
      unsigned with
      Commitment.signature =
        Lo_crypto.Signer.sign t.signer (Commitment.signing_bytes unsigned);
    }

  let record_digest t (d : Commitment.digest) =
    t.current <- d;
    Hashtbl.replace t.digest_index d.Commitment.seq d;
    let old_seq = d.Commitment.seq - t.digest_history in
    if old_seq >= 0 then
      match Hashtbl.find_opt t.digest_index old_seq with
      | Some od when Commitment.is_full od ->
          Hashtbl.replace t.digest_index old_seq (Commitment.strip_sketch od)
      | _ -> ()

  let create ~digest_history ~signer =
    let t =
      {
        signer;
        digest_history;
        known = Hashtbl.create 16;
        clock = Bloom_clock.create ~cells:Commitment.default_clock_cells ();
        sketch = Sketch.create ~capacity:Commitment.default_sketch_capacity ();
        counter = 0;
        seq = 0;
        bundles_rev = [];
        current =
          {
            Commitment.owner = "";
            seq = 0;
            counter = 0;
            clock = Bloom_clock.create ();
            sketch_hash = "";
            sketch = None;
            signature = "";
          };
        digest_index = Hashtbl.create 16;
      }
    in
    record_digest t (sign_snapshot t);
    t

  let append t ids =
    let fresh =
      List.filter
        (fun id ->
          id > 0 && id <= Short_id.max_value
          && (not (Hashtbl.mem t.known id))
          && (Hashtbl.add t.known id ();
              true))
        ids
    in
    if fresh <> [] then begin
      List.iter (Bloom_clock.add_int t.clock) fresh;
      List.iter (Sketch.add t.sketch) fresh;
      t.counter <- t.counter + List.length fresh;
      t.seq <- t.seq + 1;
      t.bundles_rev <- (t.seq, fresh) :: t.bundles_rev;
      record_digest t (sign_snapshot t)
    end

  let current_digest t = t.current
  let digest_at t ~seq = Hashtbl.find_opt t.digest_index seq
  let bundles t = List.rev t.bundles_rev
  let newest_bundle t = match t.bundles_rev with b :: _ -> Some b | [] -> None
end

module Tracker_ref = struct
  type peer_state = {
    digests : (int, Commitment.digest) Hashtbl.t;
    bundles : (int, int list) Hashtbl.t;
    mutable latest : Commitment.digest option;
  }

  type t = (string, peer_state) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let peer_state (t : t) owner =
    match Hashtbl.find_opt t owner with
    | Some st -> st
    | None ->
        let st =
          { digests = Hashtbl.create 8; bundles = Hashtbl.create 8; latest = None }
        in
        Hashtbl.add t owner st;
        st

  let latest (t : t) ~peer =
    Option.bind (Hashtbl.find_opt t peer) (fun st -> st.latest)

  let bundle_of_seq (t : t) ~owner ~seq =
    Option.bind (Hashtbl.find_opt t owner) (fun st ->
        Hashtbl.find_opt st.bundles seq)

  let snapshots (t : t) =
    Hashtbl.fold
      (fun owner st acc ->
        Hashtbl.fold (fun seq d acc -> (owner, seq, d) :: acc) st.digests acc)
      t []
    |> List.sort (fun (o1, s1, _) (o2, s2, _) ->
           match String.compare o1 o2 with 0 -> Int.compare s1 s2 | c -> c)

  let note_appended (t : t) ~owner ~seq appended =
    if appended <> [] && seq >= 1 then begin
      let st = peer_state t owner in
      if not (Hashtbl.mem st.bundles seq) then
        Hashtbl.replace st.bundles seq appended
    end

  let derive_bundles (env : Node_env.t) st (digest : Commitment.digest) =
    let open Commitment in
    (match Hashtbl.find_opt st.digests (digest.seq - 1) with
    | Some b when is_full b && is_full digest -> begin
        match check_extension ~older:b ~newer:digest () with
        | Consistent ids -> Hashtbl.replace st.bundles digest.seq ids
        | Inconsistent ->
            env.expose ~accused:digest.owner
              (Evidence.Conflicting_digests { older = b; newer = digest })
        | Plausible | Inconclusive -> ()
      end
    | _ -> ());
    match Hashtbl.find_opt st.digests (digest.seq + 1) with
    | Some a when is_full a && is_full digest -> begin
        match check_extension ~older:digest ~newer:a () with
        | Consistent ids -> Hashtbl.replace st.bundles a.seq ids
        | Inconsistent ->
            env.expose ~accused:digest.owner
              (Evidence.Conflicting_digests { older = digest; newer = a })
        | Plausible | Inconclusive -> ()
      end
    | _ -> ()

  let note_digest (t : t) (env : Node_env.t) (digest : Commitment.digest) =
    let open Commitment in
    if String.equal digest.owner env.my_id then ()
    else if not (verify env.config.scheme digest) then ()
    else begin
      let st = peer_state t digest.owner in
      match Hashtbl.find_opt st.digests digest.seq with
      | Some existing ->
          if not (equal_content existing digest) then
            env.expose ~accused:digest.owner
              (Evidence.Conflicting_digests { older = existing; newer = digest })
          else if is_full digest && not (is_full existing) then begin
            Hashtbl.replace st.digests digest.seq digest;
            (match st.latest with
            | Some l when l.seq = digest.seq -> st.latest <- Some digest
            | _ -> ());
            derive_bundles env st digest
          end
      | None ->
          let below = ref None and above = ref None in
          Hashtbl.iter
            (fun seq d ->
              if seq < digest.seq then
                match !below with
                | Some (s, _) when s >= seq -> ()
                | _ -> below := Some (seq, d)
              else
                match !above with
                | Some (s, _) when s <= seq -> ()
                | _ -> above := Some (seq, d))
            st.digests;
          let consistent = ref true in
          let check ~older ~newer ~bundle_seq_if_adjacent ~adjacent =
            let audit =
              adjacent || Rng.int env.rng 8 = 0 || (not (is_full older))
              || not (is_full newer)
            in
            let max_decode = if audit then 256 else 0 in
            match check_extension ~max_decode ~older ~newer () with
            | Inconsistent ->
                consistent := false;
                env.expose ~accused:digest.owner
                  (Evidence.Conflicting_digests { older; newer })
            | Consistent ids ->
                if adjacent then
                  Hashtbl.replace st.bundles bundle_seq_if_adjacent ids
            | Plausible | Inconclusive -> ()
          in
          (match !below with
          | None -> ()
          | Some (seq_b, b) ->
              check ~older:b ~newer:digest ~bundle_seq_if_adjacent:digest.seq
                ~adjacent:(seq_b = digest.seq - 1));
          (match !above with
          | None -> ()
          | Some (seq_a, a) ->
              check ~older:digest ~newer:a ~bundle_seq_if_adjacent:seq_a
                ~adjacent:(seq_a = digest.seq + 1));
          if !consistent then begin
            Hashtbl.replace st.digests digest.seq digest;
            if Hashtbl.length st.digests > Node_env.max_digests_per_peer then begin
              let oldest =
                Hashtbl.fold
                  (fun seq _ acc -> if seq > 0 && seq < acc then seq else acc)
                  st.digests max_int
              in
              if oldest < max_int then Hashtbl.remove st.digests oldest
            end;
            match st.latest with
            | Some l when l.seq >= digest.seq -> ()
            | _ -> st.latest <- Some digest
          end
    end
end
