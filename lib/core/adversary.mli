(** Faulty-miner strategies (paper Sec. 2.2 and Fig. 6) as a
    first-class module, so new attack scenarios plug in without editing
    the protocol core. Each variant answers a small set of predicates
    the honest-path code consults, plus {!tamper_block} for the
    block-building stage. *)

type t =
  | Honest
  | Silent_censor
      (** never answers protocol requests (Fig. 6's censoring faulty
          miner) *)
  | Tx_censor of (Tx.t -> bool)
      (** drops matching transactions at submission and content
          reception (Stage I/II censorship) *)
  | Block_injector
      (** smuggles its own uncommitted transactions into the middle of
          committed bundles *)
  | Block_reorderer
      (** orders transactions inside bundles by fee instead of the
          canonical shuffle *)
  | Blockspace_censor of (Tx.t -> bool)
      (** silently omits matching transactions from its blocks *)
  | Equivocator
      (** maintains a forked commitment log and shows different forks to
          different peers *)

val drops_all_messages : t -> bool
(** The silent censor neither handles messages nor runs timers. *)

val censors_tx : t -> Tx.t -> bool
(** Stage I/II censorship predicate. *)

val forks_log : t -> bool
(** Whether the node keeps an alternative commitment log. *)

val shows_fork_to : t -> peer_index:int -> bool
(** Which peers see the equivocation fork instead of the primary log. *)

(** Services {!tamper_block} needs from the node: content lookup and a
    way to mint (and locally store) a forged transaction. *)
type block_ctx = {
  find_txid : string -> Tx.t option;  (** mempool lookup by full txid *)
  forge_tx : unit -> Tx.t;
      (** create a fresh high-fee transaction and admit it to the local
          mempool (used by [Block_injector]) *)
}

val tamper_block : t -> block_ctx -> Policy.build_output -> Policy.build_output
(** Apply the strategy's block-stage deviation to an honestly built
    output (identity for honest/off-stage behaviours). *)

val bundles_of_sizes : string list -> int list -> string list list * string list
(** Regroup a flat txid list by bundle sizes; returns the bundles and
    the leftover appendix. *)
