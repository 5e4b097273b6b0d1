(** One live LØ node: the {!Lo_transport} backend over localhost TCP.

    The host runs an unmodified {!Lo_core.Node} over a listening socket
    on [base_port + id] and one outgoing connection per peer (messages
    from [i] to [j] always travel on the connection [i] opened to [j];
    the frame carries the sender index). It is two parts: one {!Link}
    per peer, the pure state machine that queues, fault-injects and
    charges every outgoing frame and tracks its connection, and this
    module's select loop, the driver that owns the sockets, the
    write-ahead trace, the frame decoders, a wall-clock {!Timer_wheel},
    the node and its workload.

    Protocol time is wall-clock seconds since the shared [epoch], so
    the traces of independently started processes merge into one
    audit-ready stream. Phases of a run:

    + from process birth: bind, listen, and keep every link connected
      ({!Reconnect} backoff, half-open detection); there is no startup
      barrier, so a respawned node joins a cluster already past its
      epoch;
    + the first time the loop sees relative time >= 0: start the node
      and schedule this node's share of the seed-derived workload. An
      incarnation > 0 first restores its pre-crash state (below), emits
      [Restart] and fires the transport restart handler, so
      [Node.handle_restart] re-announces its head;
    + until [duration]: full protocol, with {!Faulty_link} faults;
    + from [duration] (quiesce): timers freeze, but the loop keeps
      reading, writing and responding until the cascade settles
      ([quiet_exit] of silence with empty write queues) or
      [duration + drain] caps the run.

    {b Crash safety (the write-ahead trace).} With a [trace_path], the
    host streams every trace event to the file in the iteration it is
    emitted, and flushes it {e before} any socket write. So when a
    chaos supervisor SIGKILLs the process: (a) any frame that reached a
    peer has its [Send] on disk, so a killed node's per-tag bandwidth
    deficits are non-negative and the supervisor can close them with
    synthetic crash drops; (b) the durable trace is a faithful prefix
    of the node's history, which makes restart safe for
    accountability. A respawned incarnation replays its own
    [Commit_append] events to rebuild the exact commitment log
    ({!Resume}), never re-signing a conflicting digest history, closes
    its orphaned spans, and re-arms its standing suspicions. *)

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
(** @raise Invalid_argument unless [0 <= id < n], the ports
    [base_port .. base_port + n - 1] lie in [1 .. 65535], and the
    incarnation, resume files and faults are consistent. *)

val default_base_port : int

val run : ?trace_path:string -> config -> Lo_obs.Trace.t
(** Run one node to completion and return its trace: a one-entry ring
    whose counters ({!Lo_obs.Trace.count}, {!Lo_obs.Trace.tag_flows})
    cover every event the node emitted — one [Submit] per workload
    transaction, one [Deliver] per local or wire delivery (then a
    reader over the payload goes to the subscriber of the tag's proto,
    {!Lo_core.Node.handle_message} for ["lo"], or one [Unknown_tag]
    names a tag no one subscribed or, as ["v<k>:<tag>"], a frame of
    another wire version [k]), one
    [Malformed {tag = "frame"}] per incoming connection closed for a
    corrupt frame stream, the links' [Send]/[Drop]/[Conn_up]/
    [Conn_down]. Writes the events as streaming JSONL to [trace_path]
    when given (flushed ahead of socket writes — see the crash-safety
    contract above). Raises [Failure] if resuming from an unreadable or
    gapped prior trace. *)
