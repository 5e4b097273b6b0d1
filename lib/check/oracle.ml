module Trace = Lo_obs.Trace
module Event = Lo_obs.Event
module Audit = Lo_obs.Audit
module Runner = Lo_sim.Runner
module Sim = Lo_sim.Scenario
open Lo_core

type failure = { oracle : string; detail : string }
type detection = { adversary : int; via : string; at : float }

type verdict = {
  failures : failure list;
  detections : detection list;
  events_checked : int;
  required_detections : int;
}

(* What the oracles read from the event stream, folded by observers
   attached before the run, so the run keeps a one-entry ring. *)
type watch = {
  adversaries : (int * string) list;
  audit : Audit.t;
  mutable exposures : (float * int * int) list;
      (** every [Expose] as (at, exposer, accused), newest first *)
  first_detection : (int, float * string) Hashtbl.t;
      (** per adversary: the first suspect, expose or violation naming
          it by a node that is neither it nor another adversary *)
  accepts : (int, (float * int * int) list) Hashtbl.t;
      (** per creator: (at, accepting node, height) of its blocks
          accepted by another node *)
}

let is_adv w i = List.mem_assoc i w.adversaries

let watch ~adversaries trace =
  let w =
    {
      adversaries;
      audit = Audit.attach trace;
      exposures = [];
      first_detection = Hashtbl.create 8;
      accepts = Hashtbl.create 8;
    }
  in
  let detect ~at node peer via =
    if
      is_adv w peer && node <> peer && (not (is_adv w node))
      && not (Hashtbl.mem w.first_detection peer)
    then Hashtbl.add w.first_detection peer (at, via)
  in
  Trace.observe trace (fun { Trace.at; ev } ->
      match ev with
      | Event.Suspect { node; peer } -> detect ~at node peer "suspect"
      | Event.Expose { node; peer } ->
          w.exposures <- (at, node, peer) :: w.exposures;
          detect ~at node peer "expose"
      | Event.Violation { node; peer; _ } -> detect ~at node peer "violation"
      | Event.Block_accept { node; creator; height; _ } when node <> creator ->
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt w.accepts creator)
          in
          Hashtbl.replace w.accepts creator ((at, node, height) :: prev)
      | _ -> ());
  w

let block_kinds = [ "block-inject"; "block-reorder"; "block-censor" ]

(* A deviation carries a protocol obligation only when the network had
   a chance to see it with [slack] seconds to spare: a silently dropped
   commit request (recorded at receipt, so the requester is already
   waiting), or a tampered block some honest node accepted. Stage-I/II
   censorship and an unshown equivocation fork are invisible by
   construction — tracked, never required. *)
let observable ~slack ~horizon w ~idx (at, dkind, height) =
  if String.equal dkind "silent-drop" then at <= horizon -. slack
  else if List.mem dkind block_kinds then
    List.exists
      (fun (t0, node, h) ->
        (not (is_adv w node)) && Some h = height && t0 <= horizon -. slack)
      (Option.value ~default:[] (Hashtbl.find_opt w.accepts idx))
  else false

let observable_deviations ?(slack = 15.) ~horizon w ~node ~idx () =
  List.filter (observable ~slack ~horizon w ~idx) (Node.deviations node)

let judge w ~horizon ?(slack = 15.) ~run () =
  let d = run.Runner.deployment in
  let dir = d.Sim.directory in
  let nodes = d.Sim.nodes in
  let n = Array.length nodes in
  let adversaries = w.adversaries and is_adv = is_adv w in
  let index_of id = Directory.index_of dir id in
  let failures = ref [] in
  let detections = ref [] in
  let fail oracle detail = failures := { oracle; detail } :: !failures in
  let detect adversary via at = detections := { adversary; via; at } :: !detections in

  (* Layer 1: the replay audit. A violation naming a configured
     adversary is the protocol catching it — reclassify as detection;
     anything blaming an honest node (or the stream itself) fails. *)
  let report = Audit.finish ~horizon w.audit in
  List.iter
    (fun (v : Audit.violation) ->
      if v.node >= 0 && is_adv v.node then
        detect v.node ("audit:" ^ v.invariant) v.at
      else fail "audit" (Audit.violation_to_string v))
    report.violations;

  (* Layer 2: no-honest-exposure — both the exposure events in the
     trace and every node's final accountability state. *)
  let seen_exposure = Hashtbl.create 16 in
  let honest_exposure ~accuser ~accused ~where =
    if not (Hashtbl.mem seen_exposure (accuser, accused)) then begin
      Hashtbl.add seen_exposure (accuser, accused) ();
      fail "no-honest-exposure"
        (Printf.sprintf "node %d exposed honest node %d (%s)" accuser accused
           where)
    end
  in
  List.iter
    (fun (at, accuser, accused) ->
      if is_adv accused then detect accused "expose" at
      else honest_exposure ~accuser ~accused ~where:"trace")
    (List.rev w.exposures);
  for i = 0 to n - 1 do
    List.iter
      (fun (peer_id, _ev) ->
        match index_of peer_id with
        | Some p when not (is_adv p) ->
            honest_exposure ~accuser:i ~accused:p ~where:"final state"
        | _ -> ())
      (Accountability.exposed_peers (Node.accountability nodes.(i)))
  done;

  (* Layer 3: evidence-transferability — every filed exposure must
     verify standalone and accuse the peer it is filed under. *)
  for i = 0 to n - 1 do
    List.iter
      (fun (peer_id, ev) ->
        if not (Evidence.verify d.Sim.scheme ev) then
          fail "evidence-transferability"
            (Printf.sprintf "node %d holds unverifiable evidence against %s"
               i (Evidence.describe ev))
        else if not (String.equal (Evidence.accused ev) peer_id) then
          fail "evidence-transferability"
            (Printf.sprintf
               "node %d filed evidence under the wrong peer (%s)" i
               (Evidence.describe ev)))
      (Accountability.exposed_peers (Node.accountability nodes.(i)))
  done;

  (* Layer 4: detection-completeness against each adversary's own
     ground-truth deviation log. *)
  let audit_detected idx =
    List.exists (fun (v : Audit.violation) -> v.node = idx) report.violations
  in
  let required = ref 0 in
  List.iter
    (fun (idx, _kind) ->
      let caught = Hashtbl.find_opt w.first_detection idx in
      (match caught with
      | Some (at, via) -> detect idx via at
      | None -> ());
      List.iter
        (fun (at, dkind, height) ->
          incr required;
          if caught = None && not (audit_detected idx) then
            fail "detection-completeness"
              (Printf.sprintf
                 "adversary %d deviated (%s%s at %.2f) but was never \
                  suspected or exposed"
                 idx dkind
                 (match height with
                 | Some h -> Printf.sprintf " h=%d" h
                 | None -> "")
                 at))
        (observable_deviations ~slack ~horizon w ~node:nodes.(idx) ~idx ()))
    adversaries;

  (* Layer 5: cross-node prefix agreement on honest owners' snapshots. *)
  let snapshots = Hashtbl.create 256 in
  for i = 0 to n - 1 do
    if not (is_adv i) then
      List.iter
        (fun (owner, seq, dg) ->
          match index_of owner with
          | Some o when not (is_adv o) -> (
              match Hashtbl.find_opt snapshots (owner, seq) with
              | None -> Hashtbl.add snapshots (owner, seq) (dg, i)
              | Some (dg0, holder0) ->
                  if not (Commitment.equal_content dg0 dg) then
                    fail "prefix-agreement"
                      (Printf.sprintf
                         "nodes %d and %d hold different snapshots of \
                          honest node %d at seq %d"
                         holder0 i o seq))
          | _ -> ())
        (Node.digest_snapshots nodes.(i))
  done;

  (* Deterministic order: failures by (oracle, detail); detections by
     (adversary, time), earliest per adversary first. *)
  let failures =
    List.sort_uniq
      (fun a b ->
        match String.compare a.oracle b.oracle with
        | 0 -> String.compare a.detail b.detail
        | c -> c)
      !failures
  in
  let detections =
    List.sort
      (fun a b ->
        match compare a.adversary b.adversary with
        | 0 -> compare a.at b.at
        | c -> c)
      !detections
  in
  {
    failures;
    detections;
    events_checked = report.events_checked;
    required_detections = !required;
  }

let failures_to_string failures =
  String.concat "\n"
    (List.map (fun f -> Printf.sprintf "[%s] %s" f.oracle f.detail) failures)
