(** One peer's outgoing link: the live host's per-connection state
    machine, with no I/O of its own.

    A link owns the bounded write queue towards one peer, applies the
    {!Faulty_link} action to each frame entering it, picks the bytes of
    each socket write, and tracks the connection (down, connecting, up)
    with its {!Reconnect} clock and its connect and stall deadlines. The
    connection handle is an opaque ['fd] the driver supplies; writing,
    releasing a handle, tracing and deferring go through the caller's
    {!env}, so the same link runs under {!Host}'s select loop over
    sockets and under a synthetic clock over integers.

    {b Accounting contract.} Each remote frame charges one [Send] when
    it enters the queue (a delayed frame when its delay fires, a garbled
    one under {!Faulty_link.garble_tag}), then ends as exactly one of:
    - written in full;
    - [Drop {reason = Loss}]: a [Drop] or [Truncate] fault (the
      truncation's prefix is queued as accounted: losing it later
      charges nothing);
    - [Drop {reason = Down}]: partly written when its connection died
      or at shutdown;
    - [Drop {reason = Overflow}]: refused by a full queue (tail drop);
    - [Drop {reason = In_flight}]: still untouched in the queue at
      shutdown.
    This module builds every [Send] and [Drop] of a remote frame. *)

type 'fd state = Down | Connecting of 'fd | Up of 'fd

(** One write the driver attempted. *)
type io =
  | Wrote of int  (** bytes the kernel took, at least 1 *)
  | Again  (** would block *)
  | Failed of string  (** the connection is dead; the [Conn_down] reason *)

type 'fd env = {
  self : int;  (** this node, the [src] of every charge *)
  emit : Lo_obs.Event.t -> unit;
  rng : Lo_net.Rng.t;  (** fault draws and backoff jitter *)
  faults : Faulty_link.spec;
  defer : float -> (unit -> unit) -> unit;
      (** run a thunk this many seconds from now (a [Delay] fault) *)
  write : 'fd -> Bytes.t -> int -> int -> io;  (** [write fd buf off len] *)
  release : 'fd -> unit;  (** the link gave the handle up: close it *)
  scratch : Bytes.t;  (** gather buffer for coalesced writes *)
}

type 'fd t

val max_queue_bytes : int
(** Cap on a link's unwritten queued bytes: 256 KiB. *)

val create : 'fd env -> peer:int -> 'fd t
(** A [Down] link whose first connect is due at once. *)

val state : 'fd t -> 'fd state

val send :
  'fd t -> now:float -> tag:string -> payload:string -> string Lazy.t -> unit
(** Charge and queue one encoded frame of [payload] (the charged bytes)
    after its fault action. A fan-out shares one lazy encoding. *)

val upkeep : 'fd t -> now:float -> bool
(** Apply the deadlines (a connect in flight for over 1 s goes down as
    ["connect-timeout"], an up link with queued bytes and no write
    progress for over 4 s as ["stalled"]; the stall clock starts when
    the first frame is queued on an idle up link), then say whether the
    driver should start a connect now. *)

val connecting : 'fd t -> now:float -> 'fd -> unit
val established : 'fd t -> now:float -> unit

val down : 'fd t -> now:float -> reason:string -> unit
(** Release the handle, if any; charge a partly written head frame as
    [Down] (its tail can never follow on a later connection); re-arm
    the backoff; emit [Conn_down] if the link was up. *)

val read_fd : 'fd t -> 'fd option
(** An up handle, to watch for EOF. *)

val write_fd : 'fd t -> 'fd option
(** A connecting handle, or an up one with bytes queued. *)

val flush : 'fd t -> now:float -> int
(** Write what the handle takes, in queue order: the head frame in place
    when it is alone or fills the scratch buffer by itself, else the
    frames before the next cut gathered into the scratch buffer. A cut
    or a failed write tears the link down. Returns the queue entries
    written in full. No-op unless up. *)

val idle : 'fd t -> bool

val shutdown : 'fd t -> unit
(** Charge what is left ([Down] if partly written, else [In_flight]) and
    release the handle without a [Conn_down]. *)
