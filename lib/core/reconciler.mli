(** Pairwise commitment reconciliation (Alg. 1) as a state machine.

    Owns the per-peer request state ([waiting]/retry counters), computes
    set deltas (sketch decode with Bloom-clock fallback, Sec. 4.2),
    drives the periodic NeighborsSync rounds, and implements the
    timeout → retry → suspicion escalation plus the suspicion gossip of
    Sec. 5.1. Content movement is delegated to {!Content_sync}; peer
    digests come from {!Peer_tracker}. *)

type t

val create : content:Content_sync.t -> tracker:Peer_tracker.t -> t

val reconcile_with : ?force:bool -> t -> Node_env.t -> peer_index:int -> unit
(** Open one reconciliation exchange with a neighbour (Alg. 1
    lines 10–22): compute the delta against its last known digest,
    commit anything we learned, send a {!Messages.Commit_request} and
    arm the retry timer. Skipped while a request to the same peer is in
    flight, and for exposed peers. [force] sends even when there is
    nothing to exchange (used for probing suspects). *)

val request_timeout : t -> Node_env.t -> peer_index:int -> peer:string -> gen:int -> unit
(** Retry-timer expiry for generation [gen]: retry up to [max_retries],
    then raise a suspicion and broadcast a {!Messages.Suspicion_note}
    (Sec. 5.1). Exposed for tests; normally fired by the timer armed in
    {!reconcile_with}. *)

val resolve_pending : t -> Node_env.t -> peer:string -> unit
(** A response from [peer] arrived: clear the in-flight state, the
    unresponsiveness score and any standing suspicion — and broadcast a
    {!Messages.Suspicion_withdraw} retraction if one was standing
    (temporal accuracy, Sec. 3.2). *)

val handle_withdrawal : t -> Node_env.t -> suspect:string -> reporter:string -> unit
(** Gossiped retraction: clear the matching suspicion and relay, but
    only on a state change so the gossip terminates. *)

val unresponsive_score : t -> string -> int
(** Consecutive timeout escalations against this peer since it last
    answered (drives round-sampling demotion). *)

val on_restart : t -> Node_env.t -> unit
(** Crash-recovery hook: invalidate all in-flight request state (armed
    timers become stale generations) and force a fresh exchange with
    every still-suspected peer. *)

val handle_commit_request :
  t ->
  Node_env.t ->
  from:int ->
  digest:Commitment.digest ->
  delta:int list ->
  want:int list ->
  appended:int list ->
  unit

val handle_commit_response :
  t ->
  Node_env.t ->
  from:int ->
  digest:Commitment.digest ->
  want:int list ->
  delta:int list ->
  appended:int list ->
  unit

val handle_suspicion :
  t -> Node_env.t -> from:int -> Messages.suspicion_note -> unit
(** Gossip-relay a suspicion, answer it when we are the suspect, and
    probe the suspect ourselves so a correct node is eventually
    cleared. *)

val round : t -> Node_env.t -> unit
(** One NeighborsSync round: reconcile with
    {!Node_env.reconcile_fanout} random non-exposed neighbours, probe one
    suspected peer, and re-arm the periodic timer. *)
