(** Flooding mempool baseline (paper Sec. 6.4, "Flood").

    The classical exchange: miners periodically relay a "Mempool"
    message listing their current transaction hashes; receivers request
    the transactions they do not recognise and get the content back.
    Announcement and request bytes are the protocol overhead the paper
    compares against (tx content itself is excluded from Fig. 9 for all
    protocols). *)

type config = {
  scheme : Lo_crypto.Signer.scheme;
  announce_period : float;  (** seconds between mempool announcements *)
  fanout : int;  (** neighbours announced to per round *)
  tag_prefix : string;
      (** message tag prefix, so protocols composed on top of flooding
          (PeerReview) account their traffic separately *)
}

val default_config : Lo_crypto.Signer.scheme -> config

type t

val create :
  config ->
  net:Lo_net.Network.t ->
  index:int ->
  neighbors:int list ->
  t

val start : t -> unit
val submit_tx : t -> Lo_core.Tx.t -> unit
val mempool_size : t -> int
val has_tx : t -> string -> bool

val on_tx_content : t -> (Lo_core.Tx.t -> now:float -> unit) -> unit
(** Hook fired when new content enters the mempool. *)

val set_observer :
  t ->
  (dir:[ `Send | `Recv ] -> peer:int -> tag:string -> payload:string -> unit) ->
  unit
(** Observe every protocol message (PeerReview logs them). *)

val handle : t -> Lo_net.Network.handler
(** The message handler, exposed so a wrapping protocol can delegate. *)

