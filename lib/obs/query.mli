(** Read-only accessors over a chronological event stream, for readers
    that hold a run's entries ({!Trace.events}, oldest first). Runs
    that only fold their events attach {!Trace.observe} callbacks
    instead. *)

val exposures : Trace.entry list -> (float * int * int) list
(** Every [Expose] event as [(at, exposer, accused)], in stream order. *)
