(** Read-only accessors over a chronological event stream.

    The conformance oracles ([Lo_check]) ask a handful of recurring
    questions of a trace — "who exposed whom", "was this peer ever
    suspected", "did an honest node accept that block" — that {!Audit}'s
    invariant machines do not answer directly. These helpers keep those
    queries out of the oracle logic and next to the event definitions,
    so a new {!Event} constructor has one obvious place to be routed.

    All functions take the [entries] of a {!Trace} (oldest first, as
    {!Trace.events} returns them) and never mutate anything. *)

val exposures : Trace.entry list -> (float * int * int) list
(** Every [Expose] event as [(at, exposer, accused)], in stream order. *)

val first_detection : Trace.entry list -> peer:int -> (float * string) option
(** Earliest event in which some {e other} node held [peer] to account:
    a [Suspect], [Expose] or [Violation] naming it. Returns the time and
    the detecting event's kind label. *)

val accepts_of_creator :
  Trace.entry list -> creator:int -> (float * int * int) list
(** Every [Block_accept] of a block by [creator], as
    [(at, accepting node, height)] in stream order — acceptance by a
    node other than the creator is what makes a block-stage deviation
    observable. *)
