module Rng = Lo_net.Rng
module Seq_map = Map.Make (Int)

type peer_state = {
  mutable digests : Commitment.digest Seq_map.t;
  mutable count : int; (* bindings in [digests] *)
  bundles : (int, int list) Hashtbl.t;
}

type t = {
  peers : (string, peer_state) Hashtbl.t;
  recent : Commitment.digest option array; (* relay ring buffer *)
  mutable recent_pos : int;
}

let create () =
  { peers = Hashtbl.create 32; recent = Array.make 32 None; recent_pos = 0 }

(* Only directory members get a record: a stranger's identity, signed
   or not, allocates nothing. *)
let known (env : Node_env.t) owner = Option.is_some (env.index_of owner)

let peer_state t owner =
  match Hashtbl.find_opt t.peers owner with
  | Some st -> st
  | None ->
      let st =
        { digests = Seq_map.empty; count = 0; bundles = Hashtbl.create 8 }
      in
      Hashtbl.add t.peers owner st;
      st

let stored t owner seq =
  match Hashtbl.find_opt t.peers owner with
  | None -> None
  | Some st -> Seq_map.find_opt seq st.digests

let latest t ~peer =
  match Hashtbl.find_opt t.peers peer with
  | None -> None
  | Some st -> Option.map snd (Seq_map.max_binding_opt st.digests)

let digest_pair t ~owner ~seq =
  match (stored t owner (seq - 1), stored t owner seq) with
  | Some older, Some newer
    when Commitment.is_full older && Commitment.is_full newer ->
      Some (older, newer)
  | _ -> None

let snapshots t =
  Hashtbl.fold (fun owner st acc -> (owner, st) :: acc) t.peers []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.concat_map (fun (owner, st) ->
         List.map (fun (seq, d) -> (owner, seq, d)) (Seq_map.bindings st.digests))

let bundle_of_seq t ~owner ~seq =
  match Hashtbl.find_opt t.peers owner with
  | None -> None
  | Some st -> Hashtbl.find_opt st.bundles seq

let note_appended t env ~owner ~seq appended =
  if appended <> [] && seq >= 1 && known env owner then begin
    let st = peer_state t owner in
    if not (Hashtbl.mem st.bundles seq) then
      Hashtbl.replace st.bundles seq appended
  end

(* Recompute bundles adjacent to a freshly upgraded full digest. *)
let derive_bundles (env : Node_env.t) st digest =
  let open Commitment in
  let pair ~older ~newer =
    if is_full older && is_full newer then
      match check_extension ~older ~newer () with
      | Consistent ids -> Hashtbl.replace st.bundles newer.seq ids
      | Inconsistent ->
          env.expose ~accused:digest.owner
            (Evidence.Conflicting_digests { older; newer })
      | Plausible | Inconclusive -> ()
  in
  Option.iter
    (fun older -> pair ~older ~newer:digest)
    (Seq_map.find_opt (digest.seq - 1) st.digests);
  Option.iter
    (fun newer -> pair ~older:digest ~newer)
    (Seq_map.find_opt (digest.seq + 1) st.digests)

(* Digest bookkeeping & equivocation detection (Fig. 4). *)
let note_digest t (env : Node_env.t) digest =
  let open Commitment in
  if String.equal digest.owner env.my_id || not (known env digest.owner) then ()
  else if not (Commitment.verify env.config.scheme digest) then ()
  else begin
    let st = peer_state t digest.owner in
    match Seq_map.find_opt digest.seq st.digests with
    | Some existing ->
        if not (Commitment.equal_content existing digest) then
          env.expose ~accused:digest.owner
            (Evidence.Conflicting_digests { older = existing; newer = digest })
        else if Commitment.is_full digest && not (Commitment.is_full existing)
        then begin
          (* Upgrade a light snapshot to the full form. *)
          st.digests <- Seq_map.add digest.seq digest st.digests;
          derive_bundles env st digest;
          env.retry_inspections ~owner:digest.owner
        end
    | None ->
        let below = Seq_map.find_last_opt (fun s -> s < digest.seq) st.digests in
        let above = Seq_map.find_first_opt (fun s -> s > digest.seq) st.digests in
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
        (match below with
        | None -> ()
        | Some (seq_b, b) ->
            check ~older:b ~newer:digest ~bundle_seq_if_adjacent:digest.seq
              ~adjacent:(seq_b = digest.seq - 1));
        (match above with
        | None -> ()
        | Some (seq_a, a) ->
            check ~older:digest ~newer:a ~bundle_seq_if_adjacent:seq_a
              ~adjacent:(seq_a = digest.seq + 1));
        if !consistent then begin
          st.digests <- Seq_map.add digest.seq digest st.digests;
          st.count <- st.count + 1;
          (* Retention bound: evict the oldest snapshot (seq 0 is kept —
             it anchors first-bundle evidence). *)
          if st.count > Node_env.max_digests_per_peer then begin
            match Seq_map.find_first_opt (fun s -> s > 0) st.digests with
            | Some (oldest, _) ->
                st.digests <- Seq_map.remove oldest st.digests;
                st.count <- st.count - 1
            | None -> ()
          end;
          t.recent.(t.recent_pos) <- Some digest;
          t.recent_pos <- (t.recent_pos + 1) mod Array.length t.recent;
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
  else reply (List.filter_map (stored t owner) [ seq; seq - 1 ])

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
      Seq_map.fold (fun _ d a -> a + Commitment.encoded_size d) st.digests acc)
    t.peers 0
