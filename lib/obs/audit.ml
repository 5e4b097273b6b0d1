type violation = {
  at : float;
  node : int;
  invariant : string;
  detail : string;
}

type report = {
  violations : violation list;
  events_checked : int;
  unclosed_spans : int;
  standing_suspicions : int;
}

type tag_acc = {
  mutable sent_m : int;
  mutable sent_b : int;
  mutable out_m : int;  (* delivered + dropped *)
  mutable out_b : int;
}

let check ?(grace = 12.0) ?horizon entries =
  let violations = ref [] in
  let add at node invariant detail =
    violations := { at; node; invariant; detail } :: !violations
  in
  (* Exposures anywhere in the trace suppress the canonical-order check
     for that creator: a caught violator is the protocol working. *)
  let ever_exposed = Hashtbl.create 8 in
  List.iter
    (fun { Trace.ev; _ } ->
      match ev with
      | Event.Expose { peer; _ } when peer >= 0 ->
          Hashtbl.replace ever_exposed peer ()
      | _ -> ())
    entries;
  (* commit-monotonic *)
  let heads = Hashtbl.create 64 in (* node -> (seq, count) *)
  let committed = Hashtbl.create 4096 in (* (node, id) -> () *)
  let bundle_of = Hashtbl.create 1024 in (* (node, seq) -> ids *)
  (* canonical-order *)
  let judged = Hashtbl.create 256 in (* (creator, height, seq) -> () *)
  (* suspicion-liveness *)
  let exposed_so_far = Hashtbl.create 8 in
  let standing = Hashtbl.create 64 in (* (observer, suspect) -> raised_at *)
  let down = Hashtbl.create 16 in
  let last_restart = Hashtbl.create 16 in
  (* bandwidth-conservation *)
  let tags = Hashtbl.create 16 in
  let tag_acc tag =
    match Hashtbl.find_opt tags tag with
    | Some a -> a
    | None ->
        let a = { sent_m = 0; sent_b = 0; out_m = 0; out_b = 0 } in
        Hashtbl.add tags tag a;
        a
  in
  (* span-balance *)
  let open_spans = Hashtbl.create 64 in
  let last_at = ref 0. in
  List.iter
    (fun { Trace.at; ev } ->
      if at > !last_at then last_at := at;
      match ev with
      | Event.Send { tag; bytes; _ } ->
          let a = tag_acc tag in
          a.sent_m <- a.sent_m + 1;
          a.sent_b <- a.sent_b + bytes
      | Event.Deliver { tag; bytes; _ } ->
          let a = tag_acc tag in
          a.out_m <- a.out_m + 1;
          a.out_b <- a.out_b + bytes
      | Event.Drop { reason = Event.Blocked; _ } -> ()
      | Event.Drop { tag; bytes; _ } ->
          let a = tag_acc tag in
          a.out_m <- a.out_m + 1;
          a.out_b <- a.out_b + bytes
      | Event.Commit_append { node; seq; count; ids } -> begin
          let n_ids = List.length ids in
          (match Hashtbl.find_opt heads node with
          | Some (prev_seq, prev_count) ->
              if seq <> prev_seq + 1 then
                add at node "commit-monotonic"
                  (Printf.sprintf "bundle seq %d after head %d" seq prev_seq);
              if count <> prev_count + n_ids then
                add at node "commit-monotonic"
                  (Printf.sprintf
                     "counter %d after %d ids on top of %d (expected %d)"
                     count n_ids prev_count (prev_count + n_ids));
              Hashtbl.replace heads node (seq, count)
          | None ->
              (* First sighting: a trace attached at birth sees seq 1;
                 judge it. A mid-stream attach is adopted as baseline. *)
              if seq = 1 && count <> n_ids then
                add at node "commit-monotonic"
                  (Printf.sprintf "first bundle: counter %d for %d ids" count
                     n_ids);
              Hashtbl.replace heads node (seq, count));
          List.iter
            (fun id ->
              if Hashtbl.mem committed (node, id) then
                add at node "commit-monotonic"
                  (Printf.sprintf "short id %d committed twice" id)
              else Hashtbl.add committed (node, id) ())
            ids;
          Hashtbl.replace bundle_of (node, seq) ids
        end
      | Event.Block_accept { creator; height; bundles; omitted; _ } ->
          if creator >= 0 && not (Hashtbl.mem ever_exposed creator) then
            List.iter
              (fun (seq, block_ids) ->
                if not (Hashtbl.mem judged (creator, height, seq)) then begin
                  Hashtbl.add judged (creator, height, seq) ();
                  match Hashtbl.find_opt bundle_of (creator, seq) with
                  | None -> () (* creator's commit not in view; can't judge *)
                  | Some committed_ids ->
                      List.iter
                        (fun id ->
                          if not (List.mem id committed_ids) then
                            add at creator "canonical-order"
                              (Printf.sprintf
                                 "block h=%d bundle %d includes uncommitted id \
                                  %d without exposure"
                                 height seq id))
                        block_ids;
                      List.iter
                        (fun id ->
                          if
                            (not (List.mem id block_ids))
                            && not (List.mem id omitted)
                          then
                            add at creator "canonical-order"
                              (Printf.sprintf
                                 "block h=%d bundle %d silently drops \
                                  committed id %d"
                                 height seq id))
                        committed_ids
                end)
              bundles
      | Event.Suspect { node; peer } ->
          if peer >= 0 && not (Hashtbl.mem exposed_so_far peer) then begin
            if not (Hashtbl.mem standing (node, peer)) then
              Hashtbl.add standing (node, peer) at
          end
      | Event.Clear { node; peer } -> Hashtbl.remove standing (node, peer)
      | Event.Expose { peer; _ } ->
          if peer >= 0 then begin
            Hashtbl.replace exposed_so_far peer ();
            let stale =
              Hashtbl.fold
                (fun ((_, s) as k) _ acc -> if s = peer then k :: acc else acc)
                standing []
            in
            List.iter (Hashtbl.remove standing) stale
          end
      | Event.Crash { node } -> Hashtbl.replace down node ()
      | Event.Restart { node } ->
          Hashtbl.remove down node;
          Hashtbl.replace last_restart node at
      | Event.Span_begin { node; key } ->
          if Hashtbl.mem open_spans (node, key) then
            add at node "span-balance"
              (Printf.sprintf "span %s begun while already open" key)
          else Hashtbl.add open_spans (node, key) ()
      | Event.Span_end { node; key; _ } ->
          if Hashtbl.mem open_spans (node, key) then
            Hashtbl.remove open_spans (node, key)
          else
            add at node "span-balance"
              (Printf.sprintf "span %s ended without begin" key)
      | Event.Violation _ | Event.Unknown_tag _ | Event.Malformed _
      | Event.Conn_down _ | Event.Conn_up _ ->
          ())
    entries;
  let h = match horizon with Some h -> h | None -> !last_at in
  (* Judge standing suspicions at the horizon. *)
  let standing_list =
    Hashtbl.fold (fun (o, s) at acc -> (o, s, at) :: acc) standing []
    |> List.sort compare
  in
  let excused = ref 0 in
  List.iter
    (fun (observer, suspect, raised_at) ->
      if Hashtbl.mem down suspect || Hashtbl.mem down observer then
        incr excused
      else begin
        let since =
          match Hashtbl.find_opt last_restart suspect with
          | Some r when r > raised_at -> r
          | _ -> raised_at
        in
        if h -. since > grace then
          add h suspect "suspicion-liveness"
            (Printf.sprintf
               "node %d still suspects %d at horizon (standing %.1fs > \
                grace %.1fs)"
               observer suspect (h -. since) grace)
        else incr excused
      end)
    standing_list;
  (* Bandwidth conservation per tag. *)
  Hashtbl.fold (fun tag a acc -> (tag, a) :: acc) tags []
  |> List.sort (fun (x, _) (y, _) -> String.compare x y)
  |> List.iter (fun (tag, a) ->
         if a.sent_m <> a.out_m || a.sent_b <> a.out_b then
           add h (-1) "bandwidth-conservation"
             (Printf.sprintf
                "tag %s: %d msgs/%d B sent vs %d msgs/%d B delivered+dropped"
                tag a.sent_m a.sent_b a.out_m a.out_b));
  {
    violations = List.rev !violations;
    events_checked = List.length entries;
    unclosed_spans = Hashtbl.length open_spans;
    standing_suspicions = !excused;
  }

let check_trace ?grace ?horizon trace =
  let report = check ?grace ?horizon (Trace.events trace) in
  if Trace.evicted trace > 0 then
    {
      report with
      violations =
        {
          at = 0.;
          node = -1;
          invariant = "truncated-trace";
          detail =
            Printf.sprintf
              "%d events evicted from the ring; replay is unsound — raise \
               the capacity"
              (Trace.evicted trace);
        }
        :: report.violations;
    }
  else report

let ok r = r.violations = []

let violation_to_string v =
  Printf.sprintf "[%9.3f] %-22s node %d: %s" v.at v.invariant v.node v.detail

let summary r =
  Printf.sprintf
    "audit: %s — %d violation(s) over %d events (%d unclosed span(s), %d \
     standing suspicion(s) excused)"
    (if ok r then "PASS" else "FAIL")
    (List.length r.violations) r.events_checked r.unclosed_spans
    r.standing_suspicions
