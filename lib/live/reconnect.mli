(** Per-peer reconnect scheduling: exponential backoff with seeded
    jitter.

    Mirrors the reconciler's retry policy (base delay grown by a
    constant factor per consecutive failure, perturbed by a symmetric
    jitter fraction, capped) at the transport layer: when a peer's TCP
    connection drops, the host keeps its select loop running and only
    attempts a new connect when {!ready} says so. All randomness comes
    from the caller's {!Lo_net.Rng.t}, so a cluster seed fully
    determines the schedule each incarnation would follow. *)

type policy = {
  base : float;  (** delay before the first retry, seconds *)
  factor : float;  (** multiplicative growth per consecutive failure *)
  cap : float;  (** upper bound on the un-jittered delay *)
  jitter : float;
      (** symmetric perturbation as a fraction of the delay, in [0,1) *)
}

val default_policy : policy
(** [{ base = 0.05; factor = 1.7; cap = 1.5; jitter = 0.25 }] — tuned so
    a peer that is down for a typical chaos window (0.5–3 s) is
    re-reached within a small multiple of its respawn time, while a
    long-dead peer costs at most ~one probe per [cap] seconds. *)

val delay : policy -> rng:Lo_net.Rng.t -> attempts:int -> float
(** The jittered delay after [attempts] consecutive failures
    ([attempts = 0] is the first retry). Always positive. *)

(** Mutable per-peer state driving one connection's retry clock. *)
type t

val create : rng:Lo_net.Rng.t -> unit -> t
(** Fresh state on {!default_policy}: {!ready} is immediately true
    (first connect is free). *)

val ready : t -> now:float -> bool
(** May a connect attempt start now? *)

val next_at : t -> float
(** When {!ready} next turns true ([neg_infinity] if it already is). *)

val attempts : t -> int
(** Consecutive failures since the last established connection. *)

val failed : t -> now:float -> unit
(** A connect attempt failed: grow the backoff and re-arm the clock. *)

val opened : t -> unit
(** A connection was established: reset the backoff entirely. *)

val lost : t -> now:float -> unit
(** An established connection dropped: start a fresh backoff cycle at
    [base] (the peer was just up — probe again soon, but not in a
    busy-loop). *)
