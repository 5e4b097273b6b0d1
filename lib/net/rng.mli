(** Deterministic pseudo-random generator (splitmix64).

    Every simulation component draws randomness through an explicit
    [Rng.t] so entire experiment runs are reproducible from a single
    seed. Not cryptographic — protocol-visible randomness (the canonical
    shuffle) is a keyed hash instead (see {!Lo_core.Order}). *)

type t

val create : int -> t
val split : t -> t
(** Independent child generator; advancing either does not affect the
    other. *)

val int : t -> int -> int
(** Uniform in [\[0, bound)]; [bound] up to [max_int]. *)

val float : t -> float -> float
(** Uniform in [\[0, bound)]. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
val shuffle : t -> 'a array -> unit

val sample_without_replacement : t -> int -> 'a list -> 'a list
(** [sample_without_replacement t k xs] draws [min k (length xs)]
    distinct elements. *)

val exponential : t -> mean:float -> float
(** Exponential variate (Poisson inter-arrival times). *)

val gaussian : t -> mu:float -> sigma:float -> float
val lognormal : t -> mu:float -> sigma:float -> float
