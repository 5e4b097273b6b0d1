(** The discrete-event simulator as a {!Lo_transport} backend.

    A thin adapter: every closure forwards to the corresponding
    {!Network}/{!Mux} entry point with [node] as the source (a
    delivered payload reaches the handler as
    [Lo_codec.Reader.of_string payload]), adding no
    scheduling, no randomness and no state of its own — which is what
    makes the refactor behaviour-preserving: a node driven through this
    transport produces the event stream the pre-inversion node produced
    talking to [Network] directly (same-seed traces are byte-identical;
    see [test/cli/trace_golden.t]).

    The trace sink is snapshotted at creation, so attach it to the
    network ({!Network.set_trace}) before building transports. *)

val make : net:Network.t -> mux:Mux.t -> node:Network.node -> Lo_transport.t
