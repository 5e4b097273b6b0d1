(** Dense univariate polynomials over GF(2^32), the one field of
    {!Gf2m}.

    Coefficient arrays are little-endian ([coeffs.(i)] multiplies x^i)
    and normalised (no trailing zero coefficients, so the zero
    polynomial is the empty array). These carry the decoder side of
    PinSketch: locator polynomials, modular Frobenius powers, and the
    trace polynomials used for root splitting.

    From 16 products per fixed factor on, {!divmod}, {!rem} and the
    root search run a lazy-reduction kernel: the products by a fixed
    factor go through one {!Gf2m.fill_window} table and are accumulated
    unreduced, so each output coefficient is reduced once. *)

type t = int array

val zero : t
val one : t
val constant : int -> t
val of_coeffs : int list -> t
val degree : t -> int
(** Degree; -1 for the zero polynomial. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val coeff : t -> int -> int
val add : t -> t -> t
(** Coefficient-wise XOR. *)

val scale : int -> t -> t
val mul : t -> t -> t
val divmod : t -> t -> t * t
(** Euclidean division. @raise Division_by_zero on a zero divisor. *)

val rem : t -> t -> t
val gcd : t -> t -> t
(** Monic greatest common divisor. *)

val monic : t -> t
val eval : t -> int -> int

val square_mod : t -> modulus:t -> t
(** Frobenius squaring mod a polynomial: in characteristic 2,
    (sum a_i x^i)^2 = sum a_i^2 x^(2i), then reduced. *)

val mul_mod : t -> t -> modulus:t -> t

val roots : t -> int list option
(** All roots of a squarefree, fully-split polynomial, found by
    recursive trace splitting. Returns [None] when the polynomial is not
    a product of distinct linear factors (decode failure). The zero
    polynomial and constants yield [Some \[\]] / [None] as appropriate:
    constants have no roots, zero is rejected.

    {b Root order is part of the contract.} The list comes out in the
    order of the deterministic splitting recursion: the trial values
    beta = 1, 2 beta + 1, ... for the first split, 3 beta + 5 and
    3 beta + 7 for the two factors. Roots are consed onto one
    accumulator, the first factor's before the second's, so the second
    factor's roots precede the first's in the list. A sketch decode returns its elements in this
    order, so it fixes the order of the ids in a reconciliation delta
    and in [Commit_append] trace events. The Frobenius-table evaluation
    of each trace polynomial is an exact rewrite of that recursion and
    must keep the order: [test/poly_ref.ml] is the reference it is
    checked against. *)
