(** Domain pool for independent experiment repetitions.

    The experiment sweeps (Sec. 6 of the paper) repeat the same
    simulation under different seeds and parameters; every rep is a
    closed world — its own network, event queue and RNG — so they fan
    out across OCaml 5 domains freely. Results come back in submission
    order, making [map f items] observably identical to [List.map f
    items]: same values, same order, and (because tasks share no
    mutable state) byte-identical downstream figures and traces
    whatever the pool size. *)

val jobs : unit -> int
(** Pool size: the [LO_JOBS] environment variable when set ([1] forces
    the plain sequential path), otherwise [Domain.recommended_domain_count].
    @raise Invalid_argument if [LO_JOBS] is not a positive integer. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f items] applies [f] to every item on a pool of [jobs] domains
    (default {!jobs} [()]) and returns the results in submission order.
    With [jobs <= 1] (or fewer than two items) no domain is spawned and
    this is exactly [List.map f items]. If any task raises, the
    remaining tasks still run and the exception of the lowest-index
    failed task is re-raised after the pool drains. *)

val sweep : reps:int -> ('a -> int -> 'b) -> 'a list -> ('a * 'b list) list
(** [sweep ~reps f cells] runs [f cell rep] for every cell and every
    [rep] in [0, reps) as one {!map} over the whole (cell x rep) grid,
    and returns each cell with its reps' results in rep order: the
    grouping of the sequential nested loop
    [List.map (fun c -> (c, List.init reps (f c))) cells]. *)
