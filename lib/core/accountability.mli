(** Per-node blame bookkeeping: suspicions and exposures (paper
    Sec. 3.2).

    A suspicion is soft state — raised when a peer stops answering,
    cleared as soon as it answers — while an exposure is permanent and
    carries verifiable {!Evidence}. Accuracy demands that correct peers
    are never exposed and not perpetually suspected; completeness that
    misbehaving ones eventually are. The tests exercise both. *)

type suspicion = { since : float; reason : string }

type status =
  | Trusted
  | Suspected of suspicion
  | Exposed of Evidence.t

type t

val create : unit -> t
val status : t -> string -> status
val is_exposed : t -> string -> bool
val is_suspected : t -> string -> bool

val suspect : t -> peer:string -> now:float -> reason:string -> unit
(** No effect on an exposed peer; re-suspecting keeps the original
    [since] timestamp. *)

val clear_suspicion : t -> peer:string -> unit
(** No effect unless currently suspected. *)

val expose : t -> peer:string -> Evidence.t -> bool
(** [true] if this is a new exposure (first evidence wins). The only
    writer of exposures; nothing clears one, so {!is_exposed} is the
    node's one record of whom it has exposed. *)

val suspected_peers : t -> (string * suspicion) list
val exposed_peers : t -> (string * Evidence.t) list
val counts : t -> int * int
(** (suspected, exposed). *)
