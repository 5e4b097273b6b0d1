(** Elements of the secp256k1 base field F_p, p = 2^256 - 2^32 - 977:
    the only type of a curve coordinate. Multipliers are {!Scalar.t}.

    Ten little-endian 26-bit limbs in an [int array] (libsecp256k1's
    [field_10x26] layout), updated in place: every operation writes its
    result into a destination argument, which may alias an operand.

    Reduction is lazy and tracked by {e magnitude}: a value of
    magnitude [m] has limbs at most [2m(2^26 - 1)] (limb 9:
    [2m(2^22 - 1)]). {!mul} and {!sqr} accept operands of magnitude
    [<= 4] — every column of limb products then stays below 2^61.4,
    inside OCaml's 63-bit signed [int] — and return magnitude 1, as do
    {!sub} and {!normalize_weak}. {!add}, {!mul_int} and {!neg} do not
    carry: their result's magnitude is the sum (resp. multiple) of the
    operands', and the caller keeps it within bounds. Only
    {!normalize} yields canonical limbs, which {!is_odd} and the byte
    encoding need.

    Not constant-time. *)

type t

val create : unit -> t
(** A fresh zero. *)

val of_int : int -> t
(** A fresh element holding a small value in [\[0, 2^26)]. *)

val copy : t -> t
val set : t -> t -> unit
(** [set r a] copies [a]'s limbs into [r]. *)

val of_bytes_be : string -> t
(** From 32 big-endian bytes. Values in [\[p, 2^256)] are accepted
    unreduced, at magnitude 1. @raise Invalid_argument on other
    lengths. *)

val of_canonical_bytes : string -> t option
(** The decoder for coordinates that arrive on the wire (a compressed
    point's x, a signature's R.x): as {!of_bytes_be}, but [None] for a
    value in [\[p, 2^256)], so each field element has one encoding.
    @raise Invalid_argument on lengths other than 32. *)

val to_bytes_be : t -> string
(** The canonical 32-byte big-endian encoding of the value mod p. *)

val add : t -> t -> t -> unit
(** [add r a b]: r = a + b, no carry. *)

val mul_int : t -> t -> int -> unit
(** [mul_int r a k]: r = k a for a small non-negative [k], no carry. *)

val neg : t -> t -> int -> unit
(** [neg r a m]: r = -a for [a] of magnitude [<= m]; magnitude
    [m + 1]. *)

val sub : t -> t -> t -> unit
(** [sub r a b]: r = a - b for [b] of magnitude [<= 8]; magnitude 1. *)

val mul : t -> t -> t -> unit
(** [mul r a b]: r = a b, operands of magnitude [<= 4]. *)

val sqr : t -> t -> unit
(** [sqr r a]: r = a^2, operand of magnitude [<= 4]. *)

val inv : t -> t -> unit
(** [inv r a]: r = a^(p-2), the inverse of a non-zero [a] (0 maps to 0),
    by an addition chain of 255 squarings and 15 multiplications. *)

val sqrt : t -> t -> bool
(** [sqrt r a] sets [r] to a^((p+1)/4) and returns whether it is a
    square root of [a] (p = 3 mod 4). *)

val normalize_weak : t -> unit
(** Carry in place to magnitude 1. *)

val normalize : t -> unit
(** Reduce in place to the canonical limbs of the value in [\[0, p)]. *)

val is_zero : t -> bool
(** Whether the value (magnitude [<= 8]) is 0 mod p. *)

val equal : t -> t -> bool
(** Equality mod p; the second operand has magnitude [<= 8]. *)

val is_odd : t -> bool
(** Parity of a {!normalize}d value. *)

(**/**)

val limbs : t -> int array
(** A copy of the raw limbs. Exposed for tests. *)

val of_limbs : int array -> t
(** From ten raw limbs, unchecked beyond the count. Exposed for tests
    that drive lazy, unnormalised inputs. *)
