(** Poisson arrival schedules. *)

val poisson_times : Lo_net.Rng.t -> rate:float -> duration:float -> float list
(** Event timestamps of a homogeneous Poisson process with [rate]
    events/second over [\[0, duration)], in increasing order. *)
