(** Simplified Narwhal mempool (Danezis et al., EuroSys'22; paper
    Sec. 6.4).

    Every [batch_period] seconds a node assembles its fresh transactions
    into a batch and reliably broadcasts it to the whole network. Once a
    batch has acknowledgements from more than two thirds of the nodes it
    is referenced in a header, which is broadcast as well; nodes missing
    a referenced batch fetch it from the header's originator. The
    quorum-acknowledgement traffic is what makes Narwhal 7-10x more
    expensive than LØ in Fig. 9 while winning 1-2 s of latency. *)

type config = {
  scheme : Lo_crypto.Signer.scheme;
  batch_period : float;  (** paper: 0.5 s *)
  quorum_fraction : float;  (** paper: 2/3 *)
}

val default_config : Lo_crypto.Signer.scheme -> config

type t

val create :
  config ->
  net:Lo_net.Network.t ->
  index:int ->
  num_nodes:int ->
  signer:Lo_crypto.Signer.t ->
  t

val start : t -> unit
val submit_tx : t -> Lo_core.Tx.t -> unit

val on_tx_content : t -> (Lo_core.Tx.t -> now:float -> unit) -> unit
(** Fired when a transaction's content first reaches this node (batch
    arrival). *)

val on_tx_committed : t -> (string -> now:float -> unit) -> unit
(** Fired per transaction id when a header referencing its batch
    arrives — the Narwhal notion of mempool inclusion. *)

val headers_seen : t -> int

