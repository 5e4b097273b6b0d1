(** PinSketch set sketches (the data structure behind Minisketch).

    A sketch of capacity [c] over GF(2^32) (libminisketch's field, and
    the only one) stores the [c] odd power sums
    (syndromes) s_1, s_3, ..., s_(2c-1) of the set elements. Sketches of
    two sets XOR together into a sketch of their symmetric difference,
    which decodes exactly when the difference has at most [c] elements —
    that is the reconciliation primitive of the paper's commitments
    (Sec. 4.2). Elements are nonzero field elements; the LØ layer maps
    32-byte transaction ids onto nonzero 32-bit short ids.

    There is one decoder, {!decode}: Berlekamp–Massey over the 2c
    syndromes ({!Berlekamp_massey.run}), the locator's roots by trace
    splitting ({!Poly.roots}), and a re-encode check. *)

type t

val create : capacity:int -> unit -> t
(** Empty sketch. @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int
val copy : t -> t

val add : t -> int -> unit
(** Toggle an element's membership (adding twice removes it — sketches
    are symmetric-difference accumulators).
    @raise Invalid_argument if the element is 0 or above 2^32 - 1. *)

val add_all : t -> int list -> unit

val fill_powers : int -> int array -> unit
(** [fill_powers e v] overwrites [v] with e^1, e^3, ..., e^(2n-1) in
    GF(2^32), where [n = Array.length v]: the syndromes of the set [{e}]
    at capacity [n]. A vector filled once serves {!add_powers} at every
    capacity up to [n].
    @raise Invalid_argument if the element is 0 or above 2^32 - 1. *)

val add_powers : t -> int array -> unit
(** [add_powers t v], with [v] filled by [fill_powers e], is
    [add t e]: it xors the first [capacity t] entries of [v] into the
    syndromes, with no field multiplication.
    @raise Invalid_argument if [v] is shorter than the capacity. *)

val of_list : capacity:int -> int list -> t

val merge : t -> t -> t
(** XOR of syndromes = sketch of the symmetric difference.
    @raise Invalid_argument on mismatched capacity. *)

val truncate : t -> capacity:int -> t
(** A PinSketch of capacity [c] contains every smaller sketch as a
    syndrome prefix; [truncate] takes that prefix. Decoding a truncated
    sketch is much cheaper when an external estimate (LØ uses the Bloom
    clock) bounds the difference well below the full capacity.
    Capacities above the sketch's own are clamped. *)

val is_empty : t -> bool
(** True iff all syndromes are zero (difference empty, or — with
    negligible probability for honest inputs — a decode-resistant
    collision). *)

val decode : t -> (int list, [ `Decode_failure ]) result
(** Recover the elements of the (symmetric-difference) set, unordered.
    Fails when the difference exceeds the capacity, except that, rarely,
    a larger difference decodes to a wrong set of at most [c] elements
    with the same syndromes: re-encoding rules out every set whose
    syndromes differ, but not that one. Only the caller, who knows the
    sets, can tell it apart. *)

val serialized_size : t -> int
(** Bytes on the wire: a 3-byte header (the field byte 32 and a 16-bit
    capacity), then 4 big-endian bytes per syndrome. *)

val encode : Lo_codec.Writer.t -> t -> unit

val encode_into : t -> bytes -> pos:int -> unit
(** Write exactly [serialized_size t] bytes — byte-identical to
    {!encode}'s output — into [buf] at [pos], with no intermediate
    allocation. The commitment log uses this to maintain its serialized
    sketch in place across appends. @raise Invalid_argument if the
    target range does not fit. *)

val decode_wire : Lo_codec.Reader.t -> t
(** Read a sketch. The field byte must be 32 and the capacity nonzero;
    the declared capacity is checked against the bytes left before
    anything is allocated for it.
    @raise Lo_codec.Reader.Malformed on bad or truncated input. *)
