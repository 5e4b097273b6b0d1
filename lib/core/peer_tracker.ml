module Rng = Lo_net.Rng

type peer_state = {
  digests : (int, Commitment.digest) Hashtbl.t;
  bundles : (int, int list) Hashtbl.t;
  mutable latest : Commitment.digest option;
}

type t = {
  peers : (string, peer_state) Hashtbl.t;
  recent : Commitment.digest option array; (* relay ring buffer *)
  mutable recent_pos : int;
}

let create () =
  { peers = Hashtbl.create 32; recent = Array.make 32 None; recent_pos = 0 }

let peer_state t owner =
  match Hashtbl.find_opt t.peers owner with
  | Some st -> st
  | None ->
      let st =
        { digests = Hashtbl.create 8; bundles = Hashtbl.create 8; latest = None }
      in
      Hashtbl.add t.peers owner st;
      st

let latest t ~peer =
  match Hashtbl.find_opt t.peers peer with
  | None -> None
  | Some st -> st.latest

let digest_pair t ~owner ~seq =
  match Hashtbl.find_opt t.peers owner with
  | None -> None
  | Some st -> begin
      match
        (Hashtbl.find_opt st.digests (seq - 1), Hashtbl.find_opt st.digests seq)
      with
      | Some older, Some newer
        when Commitment.is_full older && Commitment.is_full newer ->
          Some (older, newer)
      | _ -> None
    end

let snapshots t =
  Hashtbl.fold
    (fun owner st acc ->
      Hashtbl.fold (fun seq d acc -> (owner, seq, d) :: acc) st.digests acc)
    t.peers []
  |> List.sort (fun (o1, s1, _) (o2, s2, _) ->
         match String.compare o1 o2 with 0 -> Int.compare s1 s2 | c -> c)

let bundle_of_seq t ~owner ~seq =
  match Hashtbl.find_opt t.peers owner with
  | None -> None
  | Some st -> Hashtbl.find_opt st.bundles seq

let note_appended t ~owner ~seq appended =
  if appended <> [] && seq >= 1 then begin
    let st = peer_state t owner in
    if not (Hashtbl.mem st.bundles seq) then
      Hashtbl.replace st.bundles seq appended
  end

(* Recompute bundles adjacent to a freshly upgraded full digest. *)
let derive_bundles (env : Node_env.t) st digest =
  let open Commitment in
  (match Hashtbl.find_opt st.digests (digest.seq - 1) with
  | Some b when Commitment.is_full b && Commitment.is_full digest -> begin
      match check_extension ~older:b ~newer:digest () with
      | Consistent ids -> Hashtbl.replace st.bundles digest.seq ids
      | Inconsistent ->
          env.expose ~accused:digest.owner
            (Evidence.Conflicting_digests { older = b; newer = digest })
      | Plausible | Inconclusive -> ()
    end
  | _ -> ());
  match Hashtbl.find_opt st.digests (digest.seq + 1) with
  | Some a when Commitment.is_full a && Commitment.is_full digest -> begin
      match check_extension ~older:digest ~newer:a () with
      | Consistent ids -> Hashtbl.replace st.bundles a.seq ids
      | Inconsistent ->
          env.expose ~accused:digest.owner
            (Evidence.Conflicting_digests { older = digest; newer = a })
      | Plausible | Inconclusive -> ()
    end
  | _ -> ()

(* Digest bookkeeping & equivocation detection (Fig. 4). *)
let note_digest t (env : Node_env.t) digest =
  let open Commitment in
  if String.equal digest.owner env.my_id then ()
  else if not (Commitment.verify env.config.scheme digest) then ()
  else begin
    let st = peer_state t digest.owner in
    match Hashtbl.find_opt st.digests digest.seq with
    | Some existing ->
        if not (Commitment.equal_content existing digest) then
          env.expose ~accused:digest.owner
            (Evidence.Conflicting_digests { older = existing; newer = digest })
        else if Commitment.is_full digest && not (Commitment.is_full existing)
        then begin
          (* Upgrade a light snapshot to the full form. *)
          Hashtbl.replace st.digests digest.seq digest;
          (match st.latest with
          | Some l when l.seq = digest.seq -> st.latest <- Some digest
          | _ -> ());
          derive_bundles env st digest;
          env.retry_inspections ~owner:digest.owner
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
          (* Adjacent pairs are always set-audited (they also yield the
             bundle contents); distant pairs get a sampled audit — the
             cheap counter/clock checks still run on every message, and
             with many nodes sampling independently an equivocator is
             still caught quickly. *)
          let audit =
            adjacent || Rng.int env.rng 8 = 0 || not (Commitment.is_full older)
            || not (Commitment.is_full newer)
          in
          let max_decode = if audit then 256 else 0 in
          match check_extension ~max_decode ~older ~newer () with
          | Inconsistent ->
              consistent := false;
              env.expose ~accused:digest.owner
                (Evidence.Conflicting_digests { older; newer })
          | Consistent ids ->
              if adjacent then Hashtbl.replace st.bundles bundle_seq_if_adjacent ids
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
          (* Retention bound: evict the oldest snapshot (seq 0 is kept —
             it anchors first-bundle evidence). *)
          if Hashtbl.length st.digests > Node_env.max_digests_per_peer
          then begin
            let oldest =
              Hashtbl.fold
                (fun seq _ acc -> if seq > 0 && seq < acc then seq else acc)
                st.digests max_int
            in
            if oldest < max_int then Hashtbl.remove st.digests oldest
          end;
          t.recent.(t.recent_pos) <- Some digest;
          t.recent_pos <- (t.recent_pos + 1) mod Array.length t.recent;
          (match st.latest with
          | Some l when l.seq >= digest.seq -> ()
          | _ -> st.latest <- Some digest);
          env.retry_inspections ~owner:digest.owner
        end
  end

let handle_digest_request t (env : Node_env.t) ~from ~owner ~seq =
  let reply ds =
    if ds <> [] then env.send ~dst:from (Messages.Digest_reply ds)
  in
  if String.equal owner env.my_id then
    reply
      (List.filter_map
         (fun s -> Commitment.Log.digest_at env.primary_log ~seq:s)
         [ seq; seq - 1 ])
  else begin
    let st = peer_state t owner in
    reply
      (List.filter_map
         (fun s -> Hashtbl.find_opt st.digests s)
         [ seq; seq - 1 ])
  end

let recent_digests t ~exclude_owner =
  Array.to_list t.recent
  |> List.filter_map (fun d ->
         match d with
         | Some d when not (String.equal d.Commitment.owner exclude_owner) ->
             Some d
         | _ -> None)

let storage_bytes t =
  Hashtbl.fold
    (fun _ st acc ->
      Hashtbl.fold (fun _ d a -> a + Commitment.encoded_size d) st.digests acc)
    t.peers 0
