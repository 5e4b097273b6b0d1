(** The binary field GF(2^32), reduced by x^32 + x^7 + x^3 + x^2 + 1 —
    the field of libminisketch's 32-bit sketches, and the only field of
    this library.

    Elements are OCaml ints in [\[0, 2^32)] interpreted as polynomials
    over GF(2). The field carries the PinSketch syndromes: the paper
    maps each transaction id to its 32-bit representation, i.e. an
    element of GF(2^32).

    Besides the single products ({!mul}, {!sq}, {!inv}), two kernels
    take the products by one fixed factor through an 8-bit window table:
    {!accum_powers} accumulates a sketch's syndromes, and
    {!fill_window}/{!accum_window}/{!reduce} carry the decoder's
    polynomial division and trace sums. *)

val mask : int
(** 2^32 - 1: the bit mask of an element, and the largest element. *)

val mul : int -> int -> int
(** Field multiplication: a carryless product with a 4-bit window, then
    reduction. Safe to call concurrently from multiple domains (its
    window scratch is domain-local). *)

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
    product. Both factors are field elements, so a product has degree
    at most 62 and fits a native int, and so does an xor of products. A
    kernel that accumulates many of them calls {!reduce} once per
    output. @raise Invalid_argument if a range is out of bounds. *)

val reduce : int -> int
(** Reduce an unreduced carryless product (or an xor of them) modulo
    the field polynomial: after [accum_window tab [|a|] dst ~off:0
    ~len:1] on [dst = [|0|]], [reduce dst.(0)] = [mul a b]. Two folds
    through the low terms x^7 + x^3 + x^2 + 1 always suffice. *)

val accum_powers : base:int -> step:int -> int array -> n:int -> unit
(** [accum_powers ~base ~step s ~n] xors [base * step^i] into [s.(i)]
    for [i] in [\[0, n)] (addition is xor). This is the
    syndrome-accumulation inner loop of [Sketch.add] as one fused
    kernel: the window table of [step], the modular reduction, and the
    running power are all inlined, with no call per multiplication.
    Semantically identical to the naive loop for any [base]/[step]
    (including zero). @raise Invalid_argument if [n] exceeds
    [Array.length s]. *)

val accum_powers2 :
  base1:int -> step1:int -> base2:int -> step2:int -> int array -> n:int -> unit
(** Two {!accum_powers} accumulations fused into one pass over [s]. The
    two Horner chains are independent, so their multiply latencies
    overlap and the array is traversed once. Semantically identical to
    two sequential {!accum_powers} calls for any inputs. *)

val sq : int -> int
val pow : int -> int -> int
(** [pow a k] for [k >= 0]; [pow a 0 = 1]. *)

val inv : int -> int
(** An Itoh–Tsujii addition chain: 8 multiplications and 31 squarings.
    @raise Division_by_zero on 0. *)

val div : int -> int -> int

val trace : int -> int
(** Absolute trace Tr(a) = a + a^2 + a^4 + ... + a^(2^31), in {0,1}. *)
