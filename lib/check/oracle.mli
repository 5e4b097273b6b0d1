(** The oracle stack: everything a finished run is judged against.

    Layered on top of the five replay invariants of {!Lo_obs.Audit} are
    four protocol-level oracles that need {e ground truth} — the list of
    nodes that were configured to misbehave — which the audit alone
    cannot have:

    - {b no-honest-exposure} (accuracy): no exposure, in the trace or in
      any node's final accountability state, may accuse a node that was
      not a configured adversary.
    - {b detection-completeness}: every {e observable} adversary
      deviation (from {!Lo_core.Node.deviations}, the adversary's own
      ground-truth log) must eventually be suspected, exposed or flagged
      by the audit. Observable means the network had a chance to see it
      with [slack] seconds left before the horizon: a silently dropped
      commit request, or a tampered block an honest node accepted.
      Stage-I/II censorship and a not-yet-shown equivocation fork leave
      no protocol obligation, so they are tracked but never required.
    - {b evidence-transferability}: every exposure held by any node must
      carry evidence that {!Lo_core.Evidence.verify} accepts standalone
      and that accuses the peer it is filed under.
    - {b prefix-agreement}: two honest nodes may never retain
      content-different commitment snapshots of the same honest owner
      and sequence number.

    Audit violations that {e name a configured adversary} are the
    protocol working, not a failure — they are reclassified as
    detections. Everything else fails the run. *)

type failure = { oracle : string; detail : string }

type detection = { adversary : int; via : string; at : float }
(** A configured adversary was caught: [via] says how (["suspect"],
    ["expose"], ["violation"] or ["audit:<invariant>"]). *)

type verdict = {
  failures : failure list;  (** empty = the run passed every oracle *)
  detections : detection list;  (** earliest per adversary first *)
  events_checked : int;
  required_detections : int;
      (** observable deviations the completeness oracle demanded *)
}

type watch
(** The event-stream side of the oracles — the replay audit, the
    exposures, each adversary's first detection and the block accepts
    — folded by observers while the run emits, so the run's trace can
    keep a one-entry ring. *)

val watch : adversaries:(int * string) list -> Lo_obs.Trace.t -> watch
(** Attach the oracles' observers to a trace that has recorded no
    event yet (see {!Lo_obs.Audit.attach}). [adversaries] is the ground
    truth as [(node index, kind label)] — crucially {e excluding} any
    hidden mutation (see {!Harness.mutations}), which is exactly how a
    mutated rule becomes an oracle failure.
    @raise Invalid_argument if the trace has recorded an event. *)

val judge :
  watch ->
  horizon:float ->
  ?slack:float ->
  run:Lo_sim.Runner.run ->
  unit ->
  verdict
(** Judge the finished run whose trace the watch observed. [slack]
    (default 15 s) is how much time before [horizon] a deviation must
    leave for detection to be demanded. *)

val failures_to_string : failure list -> string
(** One line per failure, deterministic order. *)

val observable_deviations :
  ?slack:float ->
  horizon:float ->
  watch ->
  node:Lo_core.Node.t ->
  idx:int ->
  unit ->
  (float * string * int option) list
(** The subset of [node]'s ground-truth deviations that the
    completeness oracle would demand a detection for. Exposed so the
    mutation harness can tell a caught mutant from a vacuous run (the
    mutant never observably deviated). *)
