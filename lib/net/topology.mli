(** Random overlay topologies in the style of Bitcoin's connection
    policy: each node dials a fixed number of outbound peers and accepts
    a bounded number of inbound connections; established connections are
    bidirectional.

    The paper's resilience experiments additionally require the correct
    nodes to form a connected subgraph on their own (Sec. 6.2); the
    [build_with_correct_core] constructor enforces that invariant. *)

type t

val build : Rng.t -> n:int -> out_degree:int -> max_in:int -> t
(** Connected random overlay over [n] nodes. A Hamiltonian ring seeds
    connectivity; remaining outbound slots are filled uniformly at
    random subject to the inbound cap. *)

val build_with_correct_core :
  Rng.t -> malicious:bool array -> out_degree:int -> max_in:int -> t
(** Same, but the ring is laid over the correct nodes only, so the
    correct subgraph is connected regardless of malicious behaviour.
    Malicious nodes attach with random outbound edges. *)

val n : t -> int
val neighbors : t -> int -> int list
val degree : t -> int -> int

val is_connected_subgraph : t -> keep:(int -> bool) -> bool
(** Whether the subgraph induced by [keep] is connected (true for the
    empty or singleton subgraph). *)

val average_degree : t -> float
