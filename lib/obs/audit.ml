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

type t = {
  trace : Trace.t;
  mutable found : violation list;  (* newest first *)
  (* commit-monotonic *)
  heads : (int, int * int) Hashtbl.t;  (* node -> (seq, count) *)
  committed : (int * int, unit) Hashtbl.t;  (* (node, id) *)
  bundle_of : (int * int, int list) Hashtbl.t;  (* (node, seq) -> ids *)
  (* canonical-order *)
  judged : (int * int * int, unit) Hashtbl.t;  (* (creator, height, seq) *)
  (* suspicion-liveness; [exposed] also filters canonical-order *)
  exposed : (int, unit) Hashtbl.t;
  standing : (int * int, float) Hashtbl.t;  (* (observer, suspect) -> raised *)
  down : (int, unit) Hashtbl.t;
  last_restart : (int, float) Hashtbl.t;
  (* span-balance *)
  open_spans : (int * string, unit) Hashtbl.t;
}

let add t at node invariant detail =
  t.found <- { at; node; invariant; detail } :: t.found

let judge_block t ~at ~creator ~height ~bundles ~omitted =
  List.iter
    (fun (seq, block_ids) ->
      if not (Hashtbl.mem t.judged (creator, height, seq)) then begin
        Hashtbl.add t.judged (creator, height, seq) ();
        match Hashtbl.find_opt t.bundle_of (creator, seq) with
        | None -> () (* creator's commit not in view; can't judge *)
        | Some committed_ids ->
            List.iter
              (fun id ->
                if not (List.mem id committed_ids) then
                  add t at creator "canonical-order"
                    (Printf.sprintf
                       "block h=%d bundle %d includes uncommitted id %d \
                        without exposure"
                       height seq id))
              block_ids;
            List.iter
              (fun id ->
                if (not (List.mem id block_ids)) && not (List.mem id omitted)
                then
                  add t at creator "canonical-order"
                    (Printf.sprintf
                       "block h=%d bundle %d silently drops committed id %d"
                       height seq id))
              committed_ids
      end)
    bundles

let step t { Trace.at; ev } =
  match ev with
  | Event.Commit_append { node; seq; count; ids } ->
      let n_ids = List.length ids in
      (match Hashtbl.find_opt t.heads node with
      | Some (prev_seq, prev_count) ->
          if seq <> prev_seq + 1 then
            add t at node "commit-monotonic"
              (Printf.sprintf "bundle seq %d after head %d" seq prev_seq);
          if count <> prev_count + n_ids then
            add t at node "commit-monotonic"
              (Printf.sprintf
                 "counter %d after %d ids on top of %d (expected %d)" count
                 n_ids prev_count (prev_count + n_ids))
      | None ->
          (* First sighting: a trace attached at birth sees seq 1; judge
             it. A stream that starts mid-run is adopted as baseline. *)
          if seq = 1 && count <> n_ids then
            add t at node "commit-monotonic"
              (Printf.sprintf "first bundle: counter %d for %d ids" count n_ids));
      Hashtbl.replace t.heads node (seq, count);
      List.iter
        (fun id ->
          if Hashtbl.mem t.committed (node, id) then
            add t at node "commit-monotonic"
              (Printf.sprintf "short id %d committed twice" id)
          else Hashtbl.add t.committed (node, id) ())
        ids;
      Hashtbl.replace t.bundle_of (node, seq) ids
  | Event.Block_accept { creator; height; bundles; omitted; _ } ->
      if creator >= 0 then judge_block t ~at ~creator ~height ~bundles ~omitted
  | Event.Suspect { node; peer } ->
      if
        peer >= 0
        && (not (Hashtbl.mem t.exposed peer))
        && not (Hashtbl.mem t.standing (node, peer))
      then Hashtbl.add t.standing (node, peer) at
  | Event.Clear { node; peer } -> Hashtbl.remove t.standing (node, peer)
  | Event.Expose { peer; _ } ->
      if peer >= 0 then begin
        Hashtbl.replace t.exposed peer ();
        let stale =
          Hashtbl.fold
            (fun ((_, s) as k) _ acc -> if s = peer then k :: acc else acc)
            t.standing []
        in
        List.iter (Hashtbl.remove t.standing) stale
      end
  | Event.Crash { node } -> Hashtbl.replace t.down node ()
  | Event.Restart { node } ->
      Hashtbl.remove t.down node;
      Hashtbl.replace t.last_restart node at
  | Event.Span_begin { node; key } ->
      if Hashtbl.mem t.open_spans (node, key) then
        add t at node "span-balance"
          (Printf.sprintf "span %s begun while already open" key)
      else Hashtbl.add t.open_spans (node, key) ()
  | Event.Span_end { node; key; _ } ->
      if Hashtbl.mem t.open_spans (node, key) then
        Hashtbl.remove t.open_spans (node, key)
      else
        add t at node "span-balance"
          (Printf.sprintf "span %s ended without begin" key)
  | Event.Send _ | Event.Deliver _ | Event.Drop _ | Event.Violation _
  | Event.Unknown_tag _ | Event.Malformed _ | Event.Conn_down _
  | Event.Conn_up _ | Event.Submit _ ->
      ()

let attach trace =
  if Trace.total trace > 0 then
    invalid_arg "Audit.attach: the trace has already recorded events";
  let t =
    {
      trace;
      found = [];
      heads = Hashtbl.create 64;
      committed = Hashtbl.create 4096;
      bundle_of = Hashtbl.create 1024;
      judged = Hashtbl.create 256;
      exposed = Hashtbl.create 8;
      standing = Hashtbl.create 64;
      down = Hashtbl.create 16;
      last_restart = Hashtbl.create 16;
      open_spans = Hashtbl.create 64;
    }
  in
  Trace.observe trace (step t);
  t

let finish ?(grace = 12.0) ?horizon t =
  let h = match horizon with Some h -> h | None -> Trace.last_at t.trace in
  (* A creator exposed anywhere in the stream, even after its block, is
     the protocol catching it: its canonical-order findings are not
     violations. *)
  let found =
    List.filter
      (fun v ->
        not (v.invariant = "canonical-order" && Hashtbl.mem t.exposed v.node))
      t.found
  in
  let late = ref [] in
  let add_late at node invariant detail =
    late := { at; node; invariant; detail } :: !late
  in
  (* Judge standing suspicions at the horizon. *)
  let excused = ref 0 in
  Hashtbl.fold (fun (o, s) at acc -> (o, s, at) :: acc) t.standing []
  |> List.sort compare
  |> List.iter (fun (observer, suspect, raised_at) ->
         if Hashtbl.mem t.down suspect || Hashtbl.mem t.down observer then
           incr excused
         else begin
           let since =
             match Hashtbl.find_opt t.last_restart suspect with
             | Some r when r > raised_at -> r
             | _ -> raised_at
           in
           if h -. since > grace then
             add_late h suspect "suspicion-liveness"
               (Printf.sprintf
                  "node %d still suspects %d at horizon (standing %.1fs > \
                   grace %.1fs)"
                  observer suspect (h -. since) grace)
           else incr excused
         end);
  (* Bandwidth conservation per tag: refusals are never charged. *)
  List.iter
    (fun (tag, (f : Trace.flow)) ->
      let out_m = f.delivered_msgs + f.dropped_msgs
      and out_b = f.delivered_bytes + f.dropped_bytes in
      if f.sent_msgs <> out_m || f.sent_bytes <> out_b then
        add_late h (-1) "bandwidth-conservation"
          (Printf.sprintf
             "tag %s: %d msgs/%d B sent vs %d msgs/%d B delivered+dropped" tag
             f.sent_msgs f.sent_bytes out_m out_b))
    (Trace.tag_flows t.trace);
  {
    violations = List.rev_append found (List.rev !late);
    events_checked = Trace.total t.trace;
    unclosed_spans = Hashtbl.length t.open_spans;
    standing_suspicions = !excused;
  }

let check ?grace ?horizon entries =
  let trace = Trace.create ~capacity:1 () in
  let t = attach trace in
  List.iter (fun { Trace.at; ev } -> Trace.emit trace ~at ev) entries;
  finish ?grace ?horizon t

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
              "%d events evicted from the ring; replay is unsound — attach \
               an audit before the run instead"
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
