(** The secp256k1 elliptic curve, y^2 = x^3 + 7 over F_p, implemented
    from scratch: coordinates are {!Fe.t} (or 32-byte strings on the
    wire), multipliers are {!Scalar.t}, and the group order is
    {!Scalar.n}.

    Points are carried in Jacobian coordinates internally; the affine
    view is exposed for encoding and equality checks. [a*G + b*P] runs
    on Lim-Lee combs, or on the GLV endomorphism with wNAF ladders for
    [P]; {!mul} stays the plain double-and-add reference. This implementation is deliberately not
    constant-time and must not be used to protect real funds. *)

type point

val infinity : point
val is_infinity : point -> bool

val g : point
(** The standard generator. *)

val of_affine : x:Fe.t -> y:Fe.t -> point
(** Copies the coordinates (magnitude [<= 4]).
    @raise Invalid_argument if (x, y) is not on the curve. *)

val to_affine : point -> (Fe.t * Fe.t) option
(** Fresh, normalised coordinates; [None] for the point at infinity. *)

val is_on_curve : x:Fe.t -> y:Fe.t -> bool
(** Whether y^2 = x^3 + 7 (coordinates of magnitude [<= 4]). *)

val neg : point -> point
val add : point -> point -> point
val double : point -> point

val mul : Scalar.t -> point -> point
(** Scalar multiplication (double-and-add). The reference ladder: every
    fast path below is qcheck-pinned against it. *)

val mul_g : Scalar.t -> point
(** [mul_g k] is [mul k g] through a per-domain fixed-base window table
    (~43 mixed additions, no doublings). The table is built lazily on
    first use in each domain and normalised to affine with one batched
    inversion. *)

type precomp
(** A table of a point for {!mul_add_precomp}; build once per point,
    reuse across scalars. *)

val precompute : point -> precomp
(** Width-5 wNAF odd multiples of the point and of its GLV image
    (8 + 8 affine points, about 0.4k field operations to build).
    @raise Invalid_argument on the point at infinity. *)

val comb : point -> precomp
(** A Lim-Lee comb of the point: 8 teeth at spacing 32, 255 affine
    points (about 51 KB), about 6.1k field operations to build
    ([substrate/secp256k1-comb-build]). Each use then saves about 750
    against {!precompute}'s table, so a comb pays when it is reused:
    {!Schnorr.batch_verify} builds one for a key that signs many
    signatures of a chunk and keeps it in a bounded per-domain cache
    across calls.
    @raise Invalid_argument on the point at infinity. *)

val mul_add_precomp : g_scalar:Scalar.t -> Scalar.t -> precomp -> point
(** [mul_add_precomp ~g_scalar:a b tbl] is [a*G + b*P] for the point
    [P] of [tbl] — the Schnorr verification shape [s*G + (n-e)*P] — in
    one chain of doublings that reads [a] off a lazily built per-domain
    comb of [G]. With a {!comb} the chain is 32 doublings plus at most
    one mixed addition per column per base (about 930 field
    multiplications and squarings). With {!precompute}'s table [b] is
    split by the GLV endomorphism into two 128-bit width-5 wNAF ladders
    over ~128 doublings, and [G]'s columns join the chain's last 32
    positions (about 1,680). *)

val mul_add : g_scalar:Scalar.t -> Scalar.t -> point -> point
(** [mul_add ~g_scalar:a b p] is [a*G + b*p] through {!precompute}'s
    table, built for this one call. *)

val equal : point -> point -> bool

val has_x : point -> Fe.t -> bool
(** [has_x pt x]: [pt] is not infinity and [x] is [pt]'s affine
    x-coordinate. Checked projectively (X = x Z^2), without an
    inversion. A wire x must come through {!Fe.of_canonical_bytes},
    which rejects encodings of [x + p]. *)

val encode_compressed : point -> string
(** 33-byte SEC1 compressed encoding (02/03 prefix). Infinity encodes as
    a single zero byte followed by 32 zero bytes. *)

val decode_compressed : string -> point option
(** Inverse of {!encode_compressed}; [None] on malformed input, an
    x of [p] or more, or points off the curve. *)

(**/**)

val beta : Fe.t
(** The cube root of unity mod p with [Scalar.lambda * (x, y) =
    (beta x, y)]. Exposed for tests. *)
