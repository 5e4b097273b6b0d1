(** Streaming invariant checking over a trace.

    An audit is a fold over a chronological event stream: {!attach} it
    to a fresh {!Trace} and it runs small state machines, one per
    accountability invariant of the protocol, on every event as it is
    emitted; {!finish} judges what is still open at the horizon. The
    audit holds the machines' state, never the events, so a run audited
    this way needs only a one-entry ring. The invariants:

    - {b commit-monotonic} — a node's commitment log only ever extends:
      bundle sequence numbers advance by exactly one, the id counter
      grows by exactly the bundle size, and no short id is committed
      twice. A regressing or forking head shows up here.
    - {b canonical-order} — every block bundle must replay the creator's
      committed bundle of the same sequence number: ids not committed at
      that seq are injections; committed ids neither included nor
      explicitly declared omitted are silent censorship. Findings are
      dropped at {!finish} for creators exposed anywhere in the stream,
      even after their block — the protocol caught them, which is the
      desired outcome.
    - {b suspicion-liveness} — a suspicion of a node that is up must
      eventually be resolved (cleared, withdrawn, or turned into an
      exposure). Standing suspicions are judged at the horizon: if both
      observer and suspect are up and more than [grace] seconds have
      passed since the suspicion was raised (or since the suspect's last
      restart, whichever is later), the {e suspect} is named guilty —
      an up node that stays suspected is exactly an unaccountable one.
    - {b bandwidth-conservation} — per message tag, charged sends must
      equal deliveries plus faults: [sent = delivered + dropped(loss |
      down | in_flight)], in both messages and bytes. Refusals
      ({!Event.Blocked}) are never charged and are excluded. Read at
      {!finish} from the attached trace's {!Trace.tag_flows}.
    - {b span-balance} — a [Span_end] without a matching open span, or
      a second [Span_begin] for an already-open (node, key), is a
      malformed trace. Spans still open at the end of the stream are
      tolerated (the horizon can cut an exchange) and only counted.

    Events must be in non-decreasing time order (they are, when they
    come from a {!Trace} filled by the simulator). *)

type t
(** An audit attached to one trace. *)

type violation = {
  at : float;
  node : int;  (** the guilty party (or [-1] for stream-level faults) *)
  invariant : string;
      (** ["commit-monotonic"], ["canonical-order"],
          ["suspicion-liveness"], ["bandwidth-conservation"] or
          ["span-balance"] *)
  detail : string;
}

type report = {
  violations : violation list;  (** in detection order *)
  events_checked : int;
  unclosed_spans : int;  (** open at end of stream — tolerated *)
  standing_suspicions : int;
      (** suspicions unresolved at the horizon but excused (an endpoint
          down, or within the grace window) *)
}

val attach : Trace.t -> t
(** Start auditing every event the trace emits from now on (an
    {!Trace.observe} callback). The trace's ring size does not matter.
    @raise Invalid_argument when the trace has already recorded events:
    an audit must see the stream from its first event. *)

val finish : ?grace:float -> ?horizon:float -> t -> report
(** The verdict over the events seen so far. [grace] defaults to 12 s
    (comfortably above the worst-case clear path: one reconciliation
    round, a full retry escalation and a withdrawal broadcast).
    [horizon] defaults to the last event's timestamp; pass the run's
    actual horizon when in-flight flush events extend past it.
    Violations come in detection order: the stream's own, then standing
    suspicions (by observer, then suspect), then bandwidth (by tag).
    [finish] changes no state, so it may be called again as the stream
    goes on. *)

val check : ?grace:float -> ?horizon:float -> Trace.entry list -> report
(** Replay [entries] into a fresh one-entry trace with an audit
    attached, then {!finish}. *)

val check_trace : ?grace:float -> ?horizon:float -> Trace.t -> report
(** [check] on the retained events. Adds a stream-level violation when
    the trace evicted events (the replay would be unsound); a run that
    must be audited whatever its ring size {!attach}es instead. *)

val ok : report -> bool
val violation_to_string : violation -> string
val summary : report -> string
(** One line: pass/fail, counts. *)
