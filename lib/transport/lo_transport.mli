(** The transport interface the protocol core runs over.

    Everything a node needs from its deployment substrate — message
    I/O, timers, the protocol clock, lifecycle and the observability
    sink — gathered into one record of closures, so the same [lo_core]
    protocol logic runs unchanged over the discrete-event simulator
    ({!Lo_net.Sim_transport}) and over real localhost sockets
    ({!Lo_live.Host}). The inversion mirrors {!Lo_core.Node_env}: plain
    closures, no functors, no first-class modules.

    {b Determinism contract.} A backend must guarantee that (a) [now]
    never consumes randomness and never mutates transport state, (b)
    [send]/[send_many]/[schedule] effects depend only on their
    arguments and the backend's own state, and (c) callbacks (message
    handlers, timers, the restart handler) are never re-entered — they
    run one at a time from the backend's event loop, and (d) every
    delivery reaches its subscriber the same way: one reader spanning
    exactly the payload's bytes, so what a node does with a message
    depends on those bytes alone, not on which backend carried them
    (the simulator wraps its payload string, a live host passes a view
    into the frame). Under the DES
    backend this makes a run a pure function of the seed; under the
    live backend the same code runs against wall clocks and sockets,
    and only the trace (not the schedule) is reproducible. *)

type handler = from:int -> tag:string -> Lo_codec.Reader.t -> unit
(** A message delivery: sender's dense index, wire tag, and a reader
    over the payload. The reader may be a view into the backend's
    receive buffer, so a handler must not keep it after it returns. *)

type t = {
  self : int;  (** this node's dense index in the deployment *)
  now : unit -> float;
      (** protocol clock in seconds. DES: simulated time; live:
          wall-clock seconds since the cluster epoch. Reading it never
          consumes RNG state. *)
  send : dst:int -> tag:string -> string -> unit;
      (** queue one payload for delivery; never blocks protocol logic *)
  send_many : dsts:int list -> tag:string -> string -> unit;
      (** fan one encoded payload out to several destinations (encode
          once, the backend shares the bytes) *)
  schedule : delay:float -> (unit -> unit) -> unit;
      (** run a callback [delay] seconds from [now ()] *)
  subscribe : proto:string -> handler -> unit;
      (** register the handler for every tag whose prefix (before the
          [':']) equals [proto]; replaces any previous handler for the
          same proto. Deliveries with no subscribed proto are counted
          and surfaced by the backend, never dropped silently. *)
  set_restart_handler : (unit -> unit) -> unit;
      (** called after the backend brings this node back up (the
          down-up lifecycle; a no-op on backends without crash
          injection) *)
  trace : Lo_obs.Trace.t option;
      (** the deployment's observability sink, snapshotted at node
          creation; [None] keeps emission sites on their cheap path *)
}
