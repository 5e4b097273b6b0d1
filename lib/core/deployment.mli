(** The seed → world rules, written once.

    The simulator ([Lo_sim.Scenario]), every live host ([Lo_live.Host])
    and the Fig. 9 baselines build the same world from the same seed by
    calling these functions; nothing else in [lib/] spells a rule out.
    That is what lets a live cluster agree on directory, overlay and
    workload with no coordination traffic, and a respawned host
    re-derive the identity its predecessor held. The rules:

    - node [i]'s key is derived from ["lo-node-<seed>-<i>"];
    - the overlay (8 outbound / 125 inbound, Sec. 6.1) draws from
      [Rng.create (31 * seed + 7)];
    - the workload client's key is derived from ["client-<seed>"];
    - the Poisson workload draws from [Rng.create (97 * seed + 13)];
    - the silent-censor placement draws from [Rng.create (seed + 5)]. *)

type t = {
  signers : Lo_crypto.Signer.t array;
  directory : Directory.t;
  topology : Lo_net.Topology.t;
  client : Lo_crypto.Signer.t;  (** signs the workload's transactions *)
}

val topology : ?malicious:bool array -> n:int -> seed:int -> unit -> Lo_net.Topology.t
(** The overlay. With [malicious], the ring is laid over the correct
    nodes only so they stay connected on their own (Sec. 6.2). *)

val derive :
  ?malicious:bool array -> scheme:Lo_crypto.Signer.scheme -> n:int -> seed:int -> unit -> t
(** Every identity, the directory over them, the {!topology} and the
    client key. *)

val workload :
  rate:float -> duration:float -> seed:int -> n:int -> Lo_workload.Tx_gen.spec list
(** Poisson arrivals at [rate] tx/s for [duration] seconds, with
    origins uniform over the [n] nodes. *)

val pick_malicious : seed:int -> n:int -> fraction:float -> bool array * int
(** [fraction * n] distinct nodes (at least one when [fraction > 0]),
    and their count. @raise Invalid_argument unless [fraction] is in
    [\[0, 1\]] (NaN included). *)
