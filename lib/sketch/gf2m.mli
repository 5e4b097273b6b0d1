(** Binary finite fields GF(2^m) for 2 <= m <= 32.

    Elements are OCaml ints in [\[0, 2^m)] interpreted as polynomials
    over GF(2); arithmetic is modulo a fixed irreducible polynomial.
    These fields carry the PinSketch syndromes: the paper maps each
    transaction id to its 32-bit representation, i.e. an element of
    GF(2^32).

    Besides the single products ({!mul}, {!sq}, {!inv}), two kernels
    take the products by one fixed factor through an 8-bit window table:
    {!accum_powers} accumulates a sketch's syndromes, and
    {!fill_window}/{!accum_window}/{!reduce} carry the decoder's
    polynomial division and trace sums. *)

type t
(** A field descriptor (size and reduction polynomial). *)

val make : m:int -> modulus:int -> t
(** [make ~m ~modulus] builds GF(2^m) reduced by x^m + [modulus] where
    [modulus] encodes the low-order terms. The polynomial is checked for
    irreducibility. @raise Invalid_argument if out of range or
    reducible. *)

val gf8 : t
(** GF(2^8), x^8 + x^4 + x^3 + x + 1 (the AES field). *)

val gf16 : t
(** GF(2^16), x^16 + x^5 + x^3 + x + 1. *)

val gf32 : t
(** GF(2^32), x^32 + x^7 + x^3 + x^2 + 1 — the field used for
    transaction-id sketches, as in libminisketch. *)

val bits : t -> int
val order_minus_one : t -> int
(** 2^m - 1, the multiplicative group order. *)

val mask : t -> int
(** 2^m - 1 as a bit mask; also the largest element. *)

val add : int -> int -> int
(** Addition = XOR (characteristic 2); provided for symmetry. *)

val mul : t -> int -> int -> int
(** Field multiplication. For m <= 16 this is two log lookups and one
    antilog lookup in per-field tables built at {!make} time; larger
    fields use {!mul_generic}. *)

val mul_generic : t -> int -> int -> int
(** The windowed carryless multiplier (4-bit window + reduction),
    independent of the log/antilog tables. Semantically identical to
    {!mul} on every field — kept as the reference implementation for
    equivalence tests and benchmarks, and as the fallback for m > 16.
    Safe to call concurrently from multiple domains (its window scratch
    is domain-local). *)

val fill_window : int array -> int -> unit
(** [fill_window tab b] writes the 8-bit window table of [b] into the
    first 256 entries of [tab]: entry [i] is the carryless product of
    [i] and [b], unreduced. @raise Invalid_argument if [tab] is
    shorter. *)

val accum_window :
  int array -> int array -> int array -> off:int -> len:int -> unit
(** [accum_window tab src dst ~off ~len], with [tab] filled by
    {!fill_window} for [b], xors the carryless product [b * src.(j)]
    into [dst.(off + j)] for [j < len], unreduced: four lookups per
    product. Both factors are field elements of an [m <= 32] field, so
    a product has degree at most 62 and fits a native int, and so does
    an xor of products. A kernel that accumulates many of them calls
    {!reduce} once per output. @raise Invalid_argument if a range is
    out of bounds. *)

val reduce : t -> int -> int
(** Reduce an unreduced carryless product (or an xor of them) modulo
    the field polynomial: after [accum_window tab [|a|] dst ~off:0
    ~len:1] on [dst = [|0|]], [reduce f dst.(0)] = [mul f a b]. *)

val tabled : t -> bool
(** Whether this field carries log/antilog tables (m <= 16). *)

val accum_powers : t -> base:int -> step:int -> int array -> n:int -> unit
(** [accum_powers f ~base ~step s ~n] xors [base * step^i] into [s.(i)]
    for [i] in [\[0, n)] — i.e. [s.(i) <- add s.(i) (mul f base
    (step^i))]. This is the syndrome-accumulation inner loop of
    [Sketch.add] as one fused kernel: the window table of [step], the
    modular reduction, and the running power are all inlined, with no
    call per multiplication.
    Semantically identical to the naive loop for every field and any
    [base]/[step] (including zero). @raise Invalid_argument if [n]
    exceeds [Array.length s]. *)

val accum_powers2 :
  t ->
  base1:int ->
  step1:int ->
  base2:int ->
  step2:int ->
  int array ->
  n:int ->
  unit
(** Two {!accum_powers} accumulations fused into one pass over [s]. The
    two Horner chains are independent, so their multiply latencies
    overlap and the array is traversed once. Semantically identical to
    two sequential {!accum_powers} calls for any inputs. *)

val sq : t -> int -> int
val pow : t -> int -> int -> int
(** [pow f a k] for [k >= 0]; [pow f a 0 = 1]. *)

val inv : t -> int -> int
(** Antilog lookup on tabled fields; an Itoh–Tsujii addition chain
    (8 multiplications and 31 squarings for GF(2^32)) otherwise.
    @raise Division_by_zero on 0. *)

val div : t -> int -> int -> int

val trace : t -> int -> int
(** Absolute trace Tr(a) = a + a^2 + a^4 + ... + a^(2^(m-1)), in {0,1}. *)
