(** PeerReview-style accountability baseline (Haeberlen et al., SOSP'07;
    paper Sec. 6.4).

    Dissemination is the same flooding exchange as {!Flood}; on top of
    it every node keeps a tamper-evident, hash-chained log of all
    messages it sends and receives, attaches a signed authenticator to
    every message, and is audited by [num_witnesses] random witnesses
    who periodically fetch and replay the new portion of the log. The
    authenticators and log transfers are the accountability overhead
    that Fig. 9 shows dwarfing LØ's commitments (~20x). *)

type config = {
  scheme : Lo_crypto.Signer.scheme;
  announce_period : float;
  fanout : int;
  num_witnesses : int;  (** paper: 8 *)
  audit_period : float;  (** seconds between witness audits *)
}

val default_config : Lo_crypto.Signer.scheme -> config

type t

val create :
  config ->
  net:Lo_net.Network.t ->
  index:int ->
  neighbors:int list ->
  witnesses:int list ->
  signer:Lo_crypto.Signer.t ->
  t
(** [witnesses] is the set of nodes this node audits as a witness (the
    harness assigns each node [num_witnesses] random witnesses and
    passes the inverse mapping here). *)

val start : t -> unit
val submit_tx : t -> Lo_core.Tx.t -> unit
val mempool_size : t -> int
val log_length : t -> int
val on_tx_content : t -> (Lo_core.Tx.t -> now:float -> unit) -> unit

val audits_ok : t -> bool
(** Whether every audit this node performed verified (honest runs must
    stay true). *)
