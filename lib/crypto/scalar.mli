(** The library's 256-bit naturals: scalars for secp256k1, with their
    arithmetic modulo the group order [n] and the GLV split.

    A value is any natural below 2^256 ({!of_bytes_be} takes every
    32-byte string); {!reduce}, {!mul}, {!add} and {!neg} return values
    in [\[0, n)]. Reduction folds by [2^256 - n] (below 2^129) instead
    of dividing, so hashing onto the scalar field and the signing
    arithmetic cost a few limb products each. Curve coordinates are
    {!Fe.t}, never scalars. *)

type t

val n : t
(** The order of the generator (prime). *)

val of_int : int -> t
(** Embed a non-negative OCaml int. *)

val of_bytes_be : string -> t
(** From 32 big-endian bytes. @raise Invalid_argument on other
    lengths. *)

val to_bytes_be : t -> string
(** The 32-byte big-endian encoding. *)

val compare : t -> t -> int
val is_zero : t -> bool

val bit : t -> int -> bool
(** [bit k i] is bit [i] of [k] (false from 256 on). *)

val num_bits : t -> int
(** The bit length (0 for zero). *)

val reduce : t -> t
(** [x mod n]. *)

val mul : t -> t -> t
(** Product mod [n] (any operands). *)

val add : t -> t -> t
(** Sum mod [n] of operands in [\[0, n)]. *)

val neg : t -> t
(** [n - a] mod [n] for [a] in [\[0, n)]. *)

val lambda : t
(** The cube root of unity mod [n] acting as [(x, y) -> (beta x, y)]. *)

val split_lambda : t -> (bool * t) * (bool * t)
(** [split_lambda k] for [k < n] is [((neg1, a1), (neg2, a2))] with
    [k = ±a1 + lambda (±a2) (mod n)] (minus where the flag is set) and
    [a1], [a2] about 128 bits long (below 2^129). *)

val comb_columns : teeth:int -> t -> int array
(** The columns of a Lim-Lee comb with [teeth] teeth (dividing 256) at
    spacing [s = 256 / teeth]: [s] values, column [j] holding bit
    [j + t s] of the scalar as its bit [t]. *)

val windows : width:int -> t -> int array
(** Unsigned [width]-bit digits, least significant first, covering 256
    bits. *)

val wnaf : w:int -> t -> int array
(** Width-[w] non-adjacent form, least significant first: each digit is
    0 or odd in (-2^(w-1), 2^(w-1)), any [w] consecutive digits hold at
    most one non-zero, and the length is the bit length plus one. *)
