(** Scalars modulo the secp256k1 group order [n], and the GLV split.

    Reduction folds by [2^256 - n] (below 2^129) instead of dividing, so
    hashing onto the scalar field and the signing arithmetic cost a few
    limb products each. Values are {!Uint256.t} in [\[0, n)]. *)

val n : Uint256.t

val reduce : Uint256.t -> Uint256.t
(** [x mod n]. *)

val mul : Uint256.t -> Uint256.t -> Uint256.t
(** Product mod [n] (any 256-bit operands). *)

val add : Uint256.t -> Uint256.t -> Uint256.t
val neg : Uint256.t -> Uint256.t

val lambda : Uint256.t
(** The cube root of unity mod [n] acting as [(x, y) -> (beta x, y)]. *)

val split_lambda : Uint256.t -> (bool * Uint256.t) * (bool * Uint256.t)
(** [split_lambda k] for [k < n] is [((neg1, a1), (neg2, a2))] with
    [k = ±a1 + lambda (±a2) (mod n)] (minus where the flag is set) and
    [a1], [a2] about 128 bits long (below 2^129). *)

val comb_columns : teeth:int -> Uint256.t -> int array
(** The columns of a Lim-Lee comb with [teeth] teeth (dividing 256) at
    spacing [s = 256 / teeth]: [s] values, column [j] holding bit
    [j + t s] of the scalar as its bit [t]. *)

val windows : width:int -> Uint256.t -> int array
(** Unsigned [width]-bit digits, least significant first, covering 256
    bits. *)

val wnaf : w:int -> Uint256.t -> int array
(** Width-[w] non-adjacent form, least significant first: each digit is
    0 or odd in (-2^(w-1), 2^(w-1)), any [w] consecutive digits hold at
    most one non-zero, and the length is the bit length plus one. *)
