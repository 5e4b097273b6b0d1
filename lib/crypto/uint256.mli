(** Unsigned 256-bit integers: encodings, comparisons and bits, plus
    modular addition and subtraction.

    Backed by 16-bit limbs (see [Limbs]); all values are in
    [\[0, 2^256)]. The modular operations take the modulus explicitly;
    [Scalar] uses them for the group order n. Products live in [Fe]
    (mod p) and [Scalar] (mod n). *)

type t

val zero : t
val one : t

val of_int : int -> t
(** Embed a non-negative OCaml int. *)

val of_bytes_be : string -> t
(** From a 32-byte big-endian string. @raise Invalid_argument on other
    lengths. *)

val to_bytes_be : t -> string
(** 32-byte big-endian encoding. *)

val of_hex : string -> t
(** From up to 64 hex digits (shorter strings are left-padded with 0). *)

val to_hex : t -> string
(** 64 lowercase hex digits. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val bit : t -> int -> bool
val num_bits : t -> int

val mod_add : modulus:t -> t -> t -> t
val mod_sub : modulus:t -> t -> t -> t
(** Both operands in [\[0, modulus)]. *)

val pp : Format.formatter -> t -> unit

(**/**)

val to_limbs : t -> int array
(** Internal: expose the 16 little-endian 16-bit limbs (copied). *)

val of_limbs : int array -> t
(** Internal: from little-endian 16-bit limbs (value must fit 256 bits). *)
