(** Transaction-trace replay.

    The paper injects its workload "based on a realistic dataset of
    Ethereum transactions" [Pierro & Rocha 2019]. This module replays
    such a trace, in a simple CSV format:

    {v timestamp_seconds,fee,size_bytes v}

    one transaction per line, timestamps non-decreasing, '#' comments
    allowed. A parsed trace converts to the same {!Tx_gen.spec} stream
    the rest of the harness consumes, so simulations are agnostic to
    whether their workload came from a file or from the synthetic
    model. *)

type record = { at : float; fee : int; size : int }

val parse : string -> (record list, string) result
(** Parse CSV text. Malformed lines yield [Error] with a message naming
    the first offending line. *)

val to_specs : Lo_net.Rng.t -> record list -> num_nodes:int -> Tx_gen.spec list
(** Attach uniformly random origin nodes, preserving timestamps, fees
    and sizes. *)

val stats : record list -> (int * float * int * int) option
(** (count, duration, min fee, max fee); [None] for the empty trace. *)
