(** Discrete-event network simulation engine.

    Nodes are dense integer ids. Protocol implementations register a
    message handler per node and exchange opaque byte strings; the
    engine delivers them after the city-to-city one-way latency (plus
    optional jitter) and emits every charged byte to the trace
    ({!set_trace}) under a caller supplied tag; the bandwidth-overhead
    figures are folded from that trace. The engine keeps no byte
    counters of its own. All scheduling is deterministic in the seed. *)

type t
type node = int

type handler = t -> from:node -> tag:string -> string -> unit

val create :
  ?latency:Latency.t ->
  ?jitter:float ->
  ?loss_rate:float ->
  num_nodes:int ->
  seed:int ->
  unit ->
  t
(** [jitter] is the fraction of the base latency used as the half-width
    of a uniform perturbation (default 0.1). [loss_rate] drops each
    message independently with the given probability (default 0;
    failure-injection knob — self-sends are never dropped). *)

val num_nodes : t -> int
val now : t -> float
val rng : t -> Rng.t
(** The engine's root generator; protocols should [Rng.split] it. *)

val city_of : t -> node -> int
val set_handler : t -> node -> handler -> unit

val set_trace : t -> Lo_obs.Trace.t option -> unit
(** Attach (or detach) an observability sink. Every charged send, every
    delivery, every drop (with its reason) and every down/up transition
    is emitted to it. Tracing never consumes engine randomness and never
    changes behaviour: a run is event-for-event identical with tracing
    on or off. Attach before protocol instances are created so they can
    snapshot it. *)

val trace : t -> Lo_obs.Trace.t option

val send : t -> src:node -> dst:node -> tag:string -> string -> unit
(** Queue a message for delivery. Self-sends are delivered with zero
    latency; for distinct nodes the perturbed delay is clamped to a
    small positive epsilon so delivery never precedes (or ties) the
    send. Dropped silently if either endpoint is down, the endpoints
    are in different partition groups, or a delivery filter rejects
    it. *)

val send_many : t -> src:node -> dsts:node list -> tag:string -> string -> unit
(** Fan one payload out to several destinations. The single [payload]
    string is shared across every enqueued delivery — callers serialize
    a broadcast message once and hand the same bytes to all recipients
    instead of re-encoding per neighbor. Per-recipient behaviour (delay
    draw, loss draw, partition/filter checks, trace events) is identical
    to calling {!send} once per destination in [dsts] order, so
    deterministic replay is unaffected. *)

val schedule : t -> delay:float -> (t -> unit) -> unit
val schedule_at : t -> at:float -> (t -> unit) -> unit

val set_down : t -> node -> bool -> unit
(** A down node neither sends nor receives (crash model); messages
    already in flight are also lost on arrival. *)

val is_down : t -> node -> bool

val crash : t -> node -> unit
(** [crash t n] = [set_down t n true]. *)

val restart : t -> node -> unit
(** Bring a down node back and invoke its restart handler (the
    protocol-level recovery path). No-op if the node is up. *)

val set_restart_handler : t -> node -> (t -> unit) -> unit
(** Called from [restart] after the node is marked up again. *)

val set_partition : t -> int array option -> unit
(** [set_partition t (Some groups)] drops every message between nodes
    in different groups ([groups.(i)] is node [i]'s group id; length
    must equal [num_nodes]). [None] heals. *)

val loss_rate : t -> float
val set_loss_rate : t -> float -> unit

val node_delay : t -> node -> float

val set_node_delay : t -> node -> float -> unit
(** Extra one-way delay added to every message sent by this node
    (failure injection: an overloaded or throttled peer). 0 clears. *)

val set_link_fault :
  t -> src:node -> dst:node -> ?loss:float -> ?extra_delay:float -> unit -> unit
(** Asymmetric per-link degradation: extra drop probability (combined
    independently with the global loss rate) and additive delay for
    messages from [src] to [dst] only. Replaces any previous fault on
    that directed link. *)

val clear_link_fault : t -> src:node -> dst:node -> unit

val set_delivery_filter : t -> (src:node -> dst:node -> tag:string -> bool) option -> unit
(** Adversarial/partition hook: return [false] to drop a message at
    send time. *)

val run_until : t -> float -> unit
(** Process events with timestamp [<=] the given time; afterwards
    [now t] equals that time. *)

val flush_in_flight : t -> unit
(** Destructively drain the event queue, emitting a {!Lo_obs.Event.Drop}
    with reason [In_flight] (at each message's scheduled delivery time)
    for every queued delivery — closing the bandwidth-conservation books
    when the horizon cuts a run. Queued timers are discarded too, so
    only call this once the run is over. No-op without a trace. *)
