(** Verifiable canonical transaction order (paper Sec. 4.3).

    Bundles are laid out in commitment order; inside a bundle the order
    is pseudo-random but deterministic: ids are sorted by a keyed hash
    whose key is derived from the previous block hash (the "order seed")
    and the bundle sequence number. Any node holding the same seed and
    bundle sets reproduces the exact same order, which is what makes
    re-ordering detectable. *)

val sort_bundle : seed:string -> bundle_seq:int -> int list -> int list
(** Deterministic shuffle of a bundle's short ids: ascending by the key
    [Hmac.sha256 ~key:seed (varint bundle_seq ‖ u32 id)], ties (equal
    ids) broken by id. *)

val canonical : seed:string -> bundles:(int * int list) list -> int list
(** Full canonical sequence: bundles ordered by their sequence number,
    each internally shuffled. Input bundles need not be pre-sorted. *)
