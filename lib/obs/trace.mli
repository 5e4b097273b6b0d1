(** The trace sink: a bounded ring of timestamped events plus running
    aggregate counters.

    Emission is deterministic and side-effect free with respect to the
    simulation: it never consumes randomness and never branches protocol
    logic, so a run behaves identically with tracing on or off. The ring
    keeps the newest [capacity] events (oldest are evicted first); the
    aggregate counters cover {e every} event ever emitted, including
    evicted ones, and so do the {!observe} callbacks. A run that only
    folds its events (figures, the {!Audit}, a streamed export) needs a
    one-entry ring; a larger ring is for reading the events back
    ({!events}, {!Jsonl.output}).

    Wall-clock phase notes ({!note_phase}) are deliberately kept out of
    the event stream: they measure the host machine, not the simulation,
    and would break byte-identical trace comparison across runs. *)

type entry = { at : float; ev : Event.t }

(** Per-message-tag byte/message flow, split by outcome. [dropped_*]
    covers {!Event.Loss}, {!Event.Down}, {!Event.In_flight} and
    {!Event.Overflow};
    [blocked_*] counts refusals that were never charged as sent. *)
type flow = {
  sent_msgs : int;
  sent_bytes : int;
  delivered_msgs : int;
  delivered_bytes : int;
  dropped_msgs : int;
  dropped_bytes : int;
  blocked_msgs : int;
  blocked_bytes : int;
}

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity defaults to [1_048_576] entries.
    @raise Invalid_argument when [capacity <= 0]. *)

val emit : t -> at:float -> Event.t -> unit

val observe : t -> (entry -> unit) -> unit
(** Append a callback invoked synchronously from {!emit} with every
    entry, after it is accounted and stored. Observers run in the order
    they were added and cannot be removed; each sees every event from
    the moment it is added, exactly once and in emission order,
    whatever the ring keeps. This is how a run is folded without
    holding its events: {!Audit.attach} judges the invariants, the
    figures fold time-resolved quantities, and the live backend streams
    a durable write-ahead trace — several at once on one trace. An
    observer must not emit into the same trace. *)

val length : t -> int
(** Entries currently retained. *)

val evicted : t -> int
val total : t -> int
(** Events ever emitted ([length + evicted]). *)

val events : t -> entry list
(** Retained entries, oldest first. *)

val last_at : t -> float
(** Timestamp of the newest event (0 when empty). *)

(** {1 Aggregates (survive eviction)} *)

val count : t -> string -> int
(** Events emitted with the given {!Event.kind} label. *)

val kind_counts : t -> (string * int) list
(** Sorted by label. *)

val tag_flows : t -> (string * flow) list
(** Per-tag wire flow, sorted by tag. *)

(** {1 Wall-clock self-profiling (not part of the event stream)} *)

val note_phase : t -> string -> float -> unit
(** Record that a named harness phase took the given wall-clock
    seconds. Repeated notes for one name accumulate. *)

val phases : t -> (string * float) list
(** In first-note order. *)
