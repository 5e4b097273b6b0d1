(** Uniform peer sampling: the idealised sampler the paper presumes.

    LØ's detection guarantees rest on an overlay in which any two
    correct nodes eventually interact (paper Sec. 3 and 5.1). The paper
    assumes a Byzantine-resilient sampler in the style of Brahms/Basalt
    and abstracts it as "continuous sampling": each draw is uniform over
    the correct candidates. The simulated experiments and [lo scale]
    that rotate neighbours draw them with {!uniform_sample}, through
    [Lo_sim.Scenario.rotate_neighbors]; the live cluster keeps its
    bootstrap topology. *)

val uniform_sample :
  Rng.t -> n:int -> k:int -> exclude:(int -> bool) -> int list
(** [k] distinct node ids drawn uniformly among those not excluded
    (fewer if not enough candidates). *)
