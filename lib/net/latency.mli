(** Synthetic wide-area latency model.

    Stands in for the WonderNetwork ping dataset used by the paper: 32
    cities grouped into regions, with one-way latencies built from
    region-pair baselines plus a deterministic per-pair perturbation.
    Miners are assigned to cities round-robin, exactly as in the paper's
    setup (Sec. 6.1). *)

type t

val default : t
(** The 32-city model. *)

val uniform : one_way:float -> t
(** Flat model for controlled tests: every distinct pair has the given
    one-way latency; same-city pairs too. *)

val num_cities : t -> int

val one_way : t -> int -> int -> float
(** One-way latency in seconds between two city indices. *)

val city_of_node : t -> int -> int
(** Round-robin city assignment of a node index. *)
