(** Bloom Clock (Ramabaja 2019): a counting Bloom filter used as a
    space-efficient logical clock over grow-only sets.

    In LØ a commitment carries the Bloom clock of all transaction ids the
    miner has ever committed to. Because commitments are append-only,
    clock comparison gives a fast consistency pre-check (an older
    commitment must be cell-wise [<=] a newer one from the same miner),
    and differing cells tell the reconciler which hash partitions need a
    Minisketch exchange. The paper uses 32 cells of 16-bit counters
    (68 bytes encoded); one hash per item, as described in Sec. 4.2. *)

type t

type order = Equal | Less | Greater | Concurrent
(** Result of the partial-order comparison of two clocks. *)

val create : ?cells:int -> unit -> t
(** Default 32 cells. *)

val cells : t -> int
val copy : t -> t

val cell_of_int : cells:int -> int -> int
(** Cell for an integer item (a short transaction id); the id is mixed
    first so the cell is independent of the id's low bits, which the
    partitioned reconciler uses for splitting. *)

(** [add_int t id] adds an integer item (LØ commits to 32-bit short
    ids). *)
val add_int : t -> int -> unit
val get : t -> int -> int
val count : t -> int
(** Total number of items added. *)

val compare_clocks : t -> t -> order
(** Cell-wise comparison; [Concurrent] when neither dominates. *)

val dominates : t -> t -> bool
(** [dominates a b] iff every cell of [a] is [>=] the same cell of [b]. *)

val diff_cells : t -> t -> int list
(** Indices of cells whose counters differ; guides partitioned
    reconciliation. *)

val estimate_difference : t -> t -> int
(** Sum of absolute cell differences: the symmetric-difference size
    when one set contains the other (an honest extension), and
    otherwise only a lower bound, because ids from both sides cancel
    within a cell. It guides sketch-capacity selection; a decode at a
    capacity it chose can be wrong when the sets are not nested. *)

val merge : t -> t -> t
(** Cell-wise maximum. *)

val max_counter : int
(** 0xFFFF: the wire carries each counter as a u16, capped here. *)

val encoded_size : t -> int
val encode : Lo_codec.Writer.t -> t -> unit
val decode : Lo_codec.Reader.t -> t
(** The declared cell count is checked against the bytes left before
    anything is allocated for it.
    @raise Lo_codec.Reader.Malformed on bad or truncated input. *)
