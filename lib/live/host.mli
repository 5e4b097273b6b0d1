(** One live LØ node: the {!Lo_transport} backend over localhost TCP.

    The host owns a listening socket on [base_port + id], one outgoing
    connection per peer (messages from [i] to [j] always travel on the
    connection [i] opened to [j]; the frame carries the sender index),
    a wall-clock {!Timer_wheel}, and a {!Lo_obs.Trace} sink, and runs
    an unmodified {!Lo_core.Node} over them with a select loop.

    Protocol time is wall-clock seconds since the shared [epoch], so
    the traces of independently started processes merge into one
    audit-ready stream. Phases of a run:

    + from process birth: bind + listen, and keep per-peer outgoing
      connections alive from one unified select loop — non-blocking
      connects, exponential-backoff reconnects with seeded jitter
      ({!Reconnect}), bounded per-peer write queues, half-open
      detection. There is no startup barrier: a respawned node joins a
      cluster that is already past its epoch;
    + the first time the loop sees relative time >= 0: start the node,
      schedule the workload (the same deterministic generator as the
      simulator — every process derives the full spec list from [seed]
      and submits the subset whose origin maps to it). An incarnation
      > 0 first restores its pre-crash state (below), emits [Restart]
      and fires the transport restart handler so [Node.handle_restart]
      re-announces its head and re-requests its peers';
    + until [duration]: full protocol — timers fire, messages flow,
      and when [faults] is non-trivial every outgoing frame passes
      through {!Faulty_link.decide};
    + from [duration] (quiesce): timers freeze, so no new rounds or
      submissions start, but the loop keeps reading, writing and
      responding until the message cascade settles ([quiet_exit] of
      silence with empty write queues) or [duration + drain] hard-caps
      the run.

    {b Crash safety (the write-ahead trace).} With a [trace_path], the
    host streams every trace event to the file the loop iteration it is
    emitted, and always flushes *before* draining socket write queues.
    So when a chaos supervisor SIGKILLs the process mid-run: (a) any
    frame that reached a peer has its [Send] on disk — per-tag
    bandwidth deficits of a killed node are strictly positive and the
    supervisor can close them with synthetic crash drops; and (b) the
    durable trace is a faithful prefix of the node's observable
    history, which is what makes restart safe for accountability. A
    respawned incarnation replays its own [Commit_append] events to
    rebuild the exact commitment log ({!Resume}) — never re-signing a
    conflicting digest history — closes its orphaned spans, and re-arms
    its standing suspicions for the reconciler to resolve. *)

type signer = [ `Simulation | `Schnorr ]
(** The signature scheme every node derives its identity under:
    {!Lo_crypto.Signer.simulation} (the default) or real
    {!Lo_crypto.Signer.schnorr}. *)

type config = {
  id : int;
  n : int;
  base_port : int;
  seed : int;
  tps : float;  (** cluster-wide submission rate, txs per second *)
  duration : float;  (** seconds of workload after the epoch *)
  epoch : float;  (** absolute wall-clock zero shared by the cluster *)
  incarnation : int;
      (** 0 for a first life; > 0 for a respawn after a crash *)
  resume_from : string list;
      (** trace files of this node's prior incarnations, in order;
          required when [incarnation > 0] *)
  faults : Faulty_link.spec;  (** {!Faulty_link.none} for a clean wire *)
  signer : signer;
}

val drain : float
(** Hard cap, in seconds, on the settle period after quiesce. *)

val config :
  id:int ->
  n:int ->
  ?base_port:int ->
  ?seed:int ->
  ?tps:float ->
  ?duration:float ->
  ?incarnation:int ->
  ?resume_from:string list ->
  ?faults:Faulty_link.spec ->
  ?signer:signer ->
  epoch:float ->
  unit ->
  config

val default_base_port : int

type stats = {
  submitted : int;  (** transactions injected at this node *)
  frames_out : int;  (** frames fully written to peers *)
  frames_in : int;  (** frames read and dispatched *)
  unknown : int;  (** deliveries with no subscribed proto (counted, traced) *)
  trace_events : int;
  reconnects : int;
      (** connections re-established after having been up once *)
}

val run : ?trace_path:string -> config -> stats
(** Run one node to completion. Writes the node's event trace as
    streaming JSONL to [trace_path] when given (flushed ahead of socket
    writes — see the crash-safety contract above). Raises [Failure] if
    resuming from an unreadable or gapped prior trace. *)
