(** A few persistent helper domains that share a caller's loop of
    independent checks: {!Schnorr.batch_verify} splits each kernel
    range's signature checks into parts and runs them here.

    The pool is spawned on the first {!for_all} of two or more parts,
    with one helper per core past the first that
    [Domain.recommended_domain_count] reports, at most 3. On a one-core
    host there are no helpers and every part runs in the caller. The
    helpers never exit; each runs with a minor heap of 64k words, a
    quarter of the default.

    Any number of domains may call {!for_all} at once: each call is a
    job whose parts any helper may claim, and the caller runs every
    part no helper has claimed, so a call never waits for a helper to
    become free, only for the parts helpers already started.

    {b Fork rule.} On OCaml 5.1, [fork] fails once a second domain
    has existed in the process, even after it was joined, and these
    helpers live until the process exits. So a process that forks must
    fork before its first fan-out: {!spawned} says whether the pool
    exists, and [Lo_live.Cluster.run] refuses to start when it does.
    A forked child may fan out freely as long as it never forks
    itself. *)

val width : unit -> int
(** Parts that can run at once: 1 plus the helpers this host gets.
    Spawns nothing. *)

val for_all : int -> (int -> bool) -> bool
(** [for_all parts check] is [check 0 && ... && check (parts - 1)],
    with the parts spread over the caller and the helpers. The caller
    runs part 0 first. Once a part returns [false], parts nobody has
    claimed are not run. [check] may run in any domain and concurrently
    with itself, so it must only read state it shares with other parts.
    The call returns once every claimed part has finished; if a part
    raised, the first such exception is re-raised in the caller, with
    its backtrace. With [parts <= 1] or no helpers it runs the parts in
    order in the caller and spawns nothing. *)

val spawned : unit -> bool
(** Whether this process has spawned the helpers, after which it can
    no longer [fork]. *)
