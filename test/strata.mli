(** Strata difference estimator (Eppstein, Goodrich, Uyeda & Varghese,
    "What's the difference?", SIGCOMM'11 — the paper's reference [16]).

    Estimates the size of the symmetric difference of two sets without
    knowing it in advance, so a reconciler can size its PinSketch
    capacity before paying for it. Elements are hashed into strata by
    the number of trailing zero bits (stratum i holds ~1/2^(i+1) of the
    elements); each stratum carries a small fixed-capacity sketch.
    Decoding strata from the sparsest down and scaling the first failure
    yields an unbiased estimate within a small constant factor.

    LØ's commitments use the Bloom clock for this job (it is cheaper and
    exact for honest extensions); the strata estimator is the
    general-purpose alternative when no clock is available. It lives
    beside the tests, which use it as an independent cross-check, and
    the bench copies it for its estimate row. *)

type t

val create : ?strata:int -> ?capacity_per_stratum:int -> unit -> t
(** Default: 24 strata, capacity 8 per stratum (~800 bytes). *)

val add : t -> int -> unit
(** @raise Invalid_argument on 0 or out-of-field elements. *)

val add_all : t -> int list -> unit
val of_list : ?strata:int -> ?capacity_per_stratum:int -> int list -> t

val estimate : t -> t -> int
(** Estimated symmetric-difference size between the two underlying sets.
    @raise Invalid_argument on mismatched parameters. *)

val serialized_size : t -> int
val encode : Lo_codec.Writer.t -> t -> unit
val decode_wire : Lo_codec.Reader.t -> t
