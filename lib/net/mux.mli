(** Per-node message multiplexing by protocol prefix.

    Tags follow the convention ["proto:detail"]; the mux owns each
    node's {!Network} handler and dispatches on the prefix before the
    colon, letting several protocol layers share one simulated node. *)

type t

val create : Network.t -> t

val register : t -> Network.node -> proto:string -> Network.handler -> unit
(** Replaces any previous handler for the same (node, proto). *)

val proto_of_tag : string -> string
(** ["lo:commit"] -> ["lo"]; a tag without a colon is its own proto. *)

val unknown_count : t -> int
(** Deliveries whose proto had no registered handler at any node. Such
    messages (a peer speaking a newer protocol version, a stray tag)
    are counted and emitted to the trace as {!Lo_obs.Event.Unknown_tag}
    rather than dropped silently. *)

val unknown_tags : t -> (string * int) list
(** Unhandled deliveries broken down by full tag, sorted by tag. *)
