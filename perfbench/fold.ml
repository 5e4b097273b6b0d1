(* Protocol metrics folded from a simulator trace; protocol time is
   simulated seconds. *)

open Lo_obs
module Sample = Lo_sim.Metrics.Stats

type input = {
  trace : Trace.t;
  honest : bool array;  (* by node index *)
  created : (int, float) Hashtbl.t;
      (* workload short id -> submission time, protocol seconds *)
  limit : float;  (* latency limit on reaching every honest node *)
  end_at : float;
      (* protocol time after which no new commit can spread; a
         transaction counts as attempted only if its first commit leaves
         the whole limit before it *)
  workload_s : float;  (* protocol seconds of offered load *)
}

type result = {
  attempted : int;
  failed : int;  (* attempted, not at every honest node within the limit *)
  commit_all : Sample.t;
      (* per attempted tx, seconds; a failed one reads as the limit *)
  admit_ms : Sample.t;
      (* per (attempted tx, honest node): submission to that node's
         commit, ms; a node that never committed it reads as the limit *)
  committed_anywhere : int;
  committed_all : int;  (* at every honest node, any time *)
  censored_at_origin : int;  (* first committed by a non-honest node *)
  window_s : float;  (* protocol seconds the attempted transactions span *)
  wire_bytes : int;  (* charged bytes, every tag *)
  events : int;
  recon_ended : int;
  recon_ok : int;
  detect_s : Sample.t;
      (* per non-honest node: the first time an honest node suspected
         it, or [end_at] if none did *)
}

type tx_state = {
  first : float;
  attempted_tx : bool;
  mutable honest_commits : int;
  mutable all_at : float;
}

let is_recon key = String.length key > 6 && String.sub key 0 6 = "recon:"

let run i =
  let n = Array.length i.honest in
  let is_honest node = node >= 0 && node < n && i.honest.(node) in
  let num_honest = Array.fold_left (fun c h -> if h then c + 1 else c) 0 i.honest in
  let txs : (int, tx_state) Hashtbl.t = Hashtbl.create 4096 in
  let admit = Sample.create () in
  let attempted = ref 0 and censored = ref 0 in
  let recon_ended = ref 0 and recon_ok = ref 0 in
  let first_suspect = Hashtbl.create 64 in
  let commit ~at ~node id =
    match Hashtbl.find_opt i.created id with
    | None -> ()
    | Some created ->
        let st =
          match Hashtbl.find_opt txs id with
          | Some st -> st
          | None ->
              let attempted_tx = is_honest node && at <= i.end_at -. i.limit in
              if attempted_tx then incr attempted;
              if not (is_honest node) then incr censored;
              let st = { first = at; attempted_tx; honest_commits = 0; all_at = infinity } in
              Hashtbl.add txs id st;
              st
        in
        if is_honest node then begin
          st.honest_commits <- st.honest_commits + 1;
          if st.honest_commits = num_honest then st.all_at <- at;
          if st.attempted_tx then Sample.add admit ((at -. created) *. 1e3)
        end
  in
  List.iter
    (fun { Trace.at; ev } ->
      match ev with
      | Event.Commit_append { node; ids; _ } -> List.iter (commit ~at ~node) ids
      | Event.Span_end { key; ok; _ } ->
          if is_recon key then begin
            incr recon_ended;
            if ok then incr recon_ok
          end
      | Event.Suspect { node; peer } ->
          if is_honest node && not (Hashtbl.mem first_suspect peer) then
            Hashtbl.add first_suspect peer at
      | _ -> ())
    (Trace.events i.trace);
  let commit_all = Sample.create () in
  let failed = ref 0 and committed_all = ref 0 in
  Hashtbl.iter
    (fun _ st ->
      if st.honest_commits >= num_honest then incr committed_all;
      if st.attempted_tx then begin
        let d = st.all_at -. st.first in
        if d <= i.limit then Sample.add commit_all d
        else begin
          incr failed;
          Sample.add commit_all i.limit
        end
      end)
    txs;
  (* Honest nodes that never committed an attempted transaction missed
     the limit. *)
  for _ = Sample.count admit + 1 to !attempted * num_honest do
    Sample.add admit (i.limit *. 1e3)
  done;
  let detect_s = Sample.create () in
  Array.iteri
    (fun node h ->
      if not h then
        Sample.add detect_s
          (Option.value (Hashtbl.find_opt first_suspect node) ~default:i.end_at))
    i.honest;
  {
    attempted = !attempted;
    failed = !failed;
    commit_all;
    admit_ms = admit;
    committed_anywhere = Hashtbl.length txs;
    committed_all = !committed_all;
    censored_at_origin = !censored;
    window_s = Float.min i.workload_s (i.end_at -. i.limit);
    wire_bytes =
      List.fold_left
        (fun acc (_, (f : Trace.flow)) -> acc + f.sent_bytes)
        0 (Trace.tag_flows i.trace);
    events = Trace.total i.trace;
    recon_ended = !recon_ended;
    recon_ok = !recon_ok;
    detect_s;
  }

(* The results of several runs as one: samples pooled in run order,
   counts summed. *)
let pool rs =
  let samples get =
    let s = Sample.create () in
    List.iter (fun r -> Sample.absorb s (get r)) rs;
    s
  in
  let sum get = List.fold_left (fun acc r -> acc + get r) 0 rs in
  {
    attempted = sum (fun r -> r.attempted);
    failed = sum (fun r -> r.failed);
    commit_all = samples (fun r -> r.commit_all);
    admit_ms = samples (fun r -> r.admit_ms);
    committed_anywhere = sum (fun r -> r.committed_anywhere);
    committed_all = sum (fun r -> r.committed_all);
    censored_at_origin = sum (fun r -> r.censored_at_origin);
    window_s = List.fold_left (fun acc r -> acc +. r.window_s) 0. rs;
    wire_bytes = sum (fun r -> r.wire_bytes);
    events = sum (fun r -> r.events);
    recon_ended = sum (fun r -> r.recon_ended);
    recon_ok = sum (fun r -> r.recon_ok);
    detect_s = samples (fun r -> r.detect_s);
  }

(* The end-to-end metrics folded from the trace. *)
let end_to_end r ~wall_s =
  let open Stats in
  [
    m "ingest_tx_per_s" "1/s" (float_of_int r.committed_anywhere /. wall_s);
    m "admit_p50_ms" "ms" (Sample.percentile r.admit_ms 0.5);
    m "admit_p90_ms" "ms" (Sample.percentile r.admit_ms 0.9);
    m "commit_all_p50_s" "s" (Sample.percentile r.commit_all 0.5);
    m "commit_all_p99_s" "s" (Sample.percentile r.commit_all 0.99);
    (* committed at every honest node within the limit, per protocol
       second of the window the attempted transactions were submitted in *)
    m "committed_tx_per_s" "1/s"
      (float_of_int (r.attempted - r.failed) /. r.window_s);
    m "failed_ratio" "ratio" (failed_ratio ~attempted:r.attempted ~failed:r.failed);
    m "wire_bytes_per_tx" "B" (float_of_int r.wire_bytes /. float_of_int r.committed_all);
    m "detect_p50_s" "s" (Sample.percentile r.detect_s 0.5);
  ]

(* Every LØ wire tag, named without its "lo:" prefix. *)
let wire_tags =
  [
    "submit"; "submit-ack"; "commit-req"; "commit-resp"; "txs"; "digest";
    "digest-req"; "digest-reply"; "suspicion"; "withdraw"; "exposure"; "block";
  ]

(* Per-layer counters: charged messages and bytes per tag, trace volume,
   and the share of reconciliation exchanges that ended well. *)
let per_layer r trace =
  let flows = Trace.tag_flows trace in
  List.concat_map
    (fun tag ->
      let f = List.assoc_opt ("lo:" ^ tag) flows in
      let get g = match f with Some f -> float_of_int (g f) | None -> 0. in
      [
        Stats.m ("wire." ^ tag ^ ".msgs") "count" (get (fun f -> f.Trace.sent_msgs));
        Stats.m ("wire." ^ tag ^ ".bytes") "B" (get (fun f -> f.Trace.sent_bytes));
      ])
    wire_tags
  @ [
      Stats.m "trace.events" "count" (float_of_int r.events);
      Stats.m "core.reconciler.span_ok_ratio" "ratio"
        (float_of_int r.recon_ok /. float_of_int (max 1 r.recon_ended));
    ]
