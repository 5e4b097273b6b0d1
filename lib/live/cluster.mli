(** A full localhost cluster: fork one {!Host} process per node,
    supervise it (optionally killing and respawning nodes per a seeded
    chaos schedule), merge the per-incarnation traces into a single
    chronological stream, and audit it.

    The parent never exchanges protocol traffic with the children; it
    only picks a shared epoch, delivers SIGKILLs on schedule, collects
    exit statuses with a non-blocking reap loop, and reads the JSONL
    trace each incarnation leaves in [out_dir]
    ([node-<i>.<incarnation>.jsonl]; no other file). The merged stream
    is replayed once into a one-entry trace that an {!Lo_obs.Audit} and
    the [merged.jsonl] writer observe.

    {b One ledger.} Every count in the {!report} is folded from those
    traces, so a SIGKILLed incarnation's work counts up to its last
    flushed event:
    - [submitted]: [Submit] events;
    - [frames]: [Deliver] events with [src <> dst] (frames read off a
      socket);
    - [reconnects]: per incarnation file, each [Conn_up] after the first
      towards the same peer;
    - [unknown], [overflows], [exposures], [restarts], [events]: the
      merged trace's [Unknown_tag], [Drop {reason = Overflow}],
      [Expose] and [Restart] events, and its length.

    {b Chaos.} With [chaos] set, the supervisor compiles the schedule
    to process-level {!Lo_net.Fault_plan.Crash} events: at each kill
    time the victim is SIGKILLed (no flush, no goodbye — the real crash
    model) and after its down window it is respawned with
    [incarnation + 1] and the trace files of its prior lives, which is
    all {!Host} needs to rebuild its commitment log, close orphaned
    spans, re-arm suspicions and rejoin ({!Resume}). The supervisor
    distinguishes its own kills from genuine failures when reaping, and
    inserts the [Crash] events the victims could not write into the
    merged stream. Because the host's trace is a write-ahead log
    flushed before socket writes, a kill leaves only non-negative
    per-tag bandwidth deficits; the supervisor closes them with
    synthetic crash drops at the horizon ([synthesized_drops]) — only
    when kills were actually induced, so a deficit in a clean run still
    fails the audit. A watchdog SIGKILLs any child that outlives the
    horizon by a grace period and fails the run. *)

type chaos = {
  kills : int;  (** distinct victims to kill exactly once (when [rate = None]) *)
  rate : float option;
      (** Poisson kills/s via {!Lo_net.Fault_plan.churn} instead *)
  mean_down : float;  (** mean seconds between a kill and its respawn *)
  link : Faulty_link.spec;
      (** socket-level fault rates applied inside every host *)
}

val default_chaos : chaos
(** 3 kills, mean 1.5 s down, mild link faults (~4% of frames
    perturbed). *)

val chaos_of_string : string -> (chaos, string) result
(** Parse a ["key=value,..."] spec over {!default_chaos}: [kills],
    [rate], [down], [drop], [dup], [delay], [dmax], [trunc], [garble].
    The empty string means {!default_chaos}. *)

val plan_of_chaos :
  n:int -> duration:float -> seed:int -> chaos -> Lo_net.Fault_plan.t
(** The seeded process-level kill schedule: [Crash {node; down_for}]
    events with kill times in the first 60% of the run and down windows
    clamped so every respawn lands by 85% of [duration] — a restart
    needs live traffic left to rejoin. *)

type report = {
  n : int;
  seed : int;
  duration : float;
  out_dir : string;
  submitted : int;  (** [Submit] events: transactions injected *)
  frames : int;  (** remote [Deliver] events: frames received *)
  unknown : int;  (** [Unknown_tag] events in the merged trace *)
  overflows : int;
      (** [Drop {reason = Overflow}] in the merged trace: tail drops *)
  events : int;  (** merged trace entries audited *)
  exposures : int;  (** [Expose] events — must be 0 in an honest run *)
  failed_nodes : int list;
      (** children that exited non-zero, died to a signal the
          supervisor did not send, or left an unreadable trace *)
  induced_kills : (float * int) list;
      (** (seconds after epoch, node) for each SIGKILL delivered *)
  restarts : int;  (** [Restart] events in the merged trace *)
  reconnects : int;
      (** [Conn_up] events after an incarnation's first to that peer *)
  watchdog_killed : int list;  (** children killed past the deadline *)
  synthesized_drops : int;
      (** crash drops added to close kill-induced bandwidth deficits *)
  truncated_lines : int;
      (** partial trailing trace lines discarded across all files *)
  audit : Lo_obs.Audit.report;
}

val run :
  ?out_dir:string ->
  ?base_port:int ->
  ?chaos:chaos ->
  ?signer:Host.signer ->
  n:int ->
  tps:float ->
  duration:float ->
  seed:int ->
  unit ->
  report
(** Blocks for roughly [duration] plus {!Host.drain} plus startup (plus the
    watchdog grace if a child hangs). [out_dir] defaults to a fresh
    directory under the system temp dir; existing files in it are
    overwritten. Without [chaos] no kills are induced and no drops are
    synthesized. [signer] (default [`Simulation]) picks the scheme every
    node signs and verifies under.

    The parent must be able to fork, so it must not have fanned out
    signature checks first (the fork rule of {!Lo_crypto.Fanout}).
    @raise Failure before anything is forked or written when
    [Lo_crypto.Fanout.spawned ()]. *)

val close_deficits : Lo_obs.Trace.t -> int
(** Balance every message tag whose charged sends exceed its deliveries
    and drops (by [m] messages and [b >= 0] bytes, from
    {!Lo_obs.Trace.tag_flows}): emit [m] synthetic
    [Drop {reason = Down}] events for it at the trace's newest
    timestamp, [b] bytes spread evenly with the remainder on the first.
    Returns the number emitted. The supervisor applies it after
    replaying a run with induced kills. *)

val ok : report -> bool
(** All children exited cleanly (induced kills excepted), the watchdog
    stayed idle, the audit passed, no honest node was exposed, and
    every induced kill produced a restart. *)

val summary : report -> string
(** Multi-line human-readable report. *)
