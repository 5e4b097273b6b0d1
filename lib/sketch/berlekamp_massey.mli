(** Berlekamp–Massey over GF(2^32).

    Finds the shortest linear-feedback shift register generating a
    syndrome sequence; its connection polynomial is the PinSketch
    locator whose roots are the inverses of the set-difference
    elements. *)

val run : int array -> Poly.t * int
(** [run s] returns [(c, l)] where [c] is the connection polynomial
    (with [c(0) = 1]) of the minimal LFSR of length [l] generating the
    sequence [s] (read as s.(0), s.(1), ...). *)
