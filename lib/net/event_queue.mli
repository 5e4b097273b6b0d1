(** Priority queue of timestamped events.

    Ties break on insertion order, which keeps simulations fully
    deterministic: pops come out in strictly ascending (time, seq)
    where [seq] is the global insertion counter — a total order.

    The backend is a Brown-style calendar queue: bucketed time, O(1)
    amortized add/pop under the dense schedules a 10,000-node
    simulation produces. It starts at 16 buckets and resizes itself as
    the queue grows and shrinks; resizing only moves entries between
    buckets, never changes the pop order. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int
val add : 'a t -> time:float -> 'a -> unit
val peek_time : 'a t -> float option
val pop : 'a t -> (float * 'a) option
