(** Wall-clock timer wheel for the live event loop.

    A thin wrapper over the deterministic calendar queue
    ({!Lo_net.Event_queue}): insertion order breaks ties, so two timers
    due at the same instant fire in the order they were scheduled —
    the same guarantee the DES gives protocol code. *)

type t

val create : unit -> t
val schedule : t -> at:float -> (unit -> unit) -> unit

val next_due : t -> float option
(** Earliest deadline still queued. *)

val run_due : t -> now:float -> int
(** Pop and run every callback with deadline [<= now], in deadline
    (then insertion) order; returns how many ran. Callbacks may
    schedule further timers; those run too if already due. *)

val pending : t -> int
