(** JSONL export/import of trace entries.

    One JSON object per line, fixed field order per event kind, floats
    printed with six decimals — so two traces are byte-identical exactly
    when their event streams are. Strings (tags, span keys, violation
    kinds) are sanitised on emission to a conservative character set
    (alphanumerics and [:_\-./ ]); the parser relies on that, which
    keeps it dependency-free.

    Wall-clock phase notes are intentionally absent from the export:
    they are host-machine measurements and would break determinism. *)

val line : Trace.entry -> string
(** Without the trailing newline. *)

val add_line : Buffer.t -> Trace.entry -> unit
(** [line] and its newline, appended to the buffer: a {!Trace.observe}
    callback that streams a trace as JSONL. *)

val to_string : Trace.t -> string
(** Every retained entry, one per line, each newline-terminated. *)

val parse_line : string -> (Trace.entry, string) result

val parse : string -> (Trace.entry list, string) result
(** Whole-document parse; blank lines are skipped. On failure the error
    names the offending line number. *)

(** {2 Flat-object reading}

    The pieces {!parse_line} is built from, for other one-line JSON
    formats whose values obey the same charset (no quotes or commas
    inside a value). Each raises {!Fail} on malformed input. *)

exception Fail of string

val split_fields : string -> (string * string) list
(** [{"k":v,...}] to its (key, raw value text) pairs, in order; commas
    inside brackets do not split, and whitespace around keys, colons and
    values is skipped. *)

val field : (string * string) list -> string -> string
(** The raw value of a key. *)

val as_int : string -> int
val as_float : string -> float
val as_bool : string -> bool

val as_string : string -> string
(** A quoted value without its quotes. *)

val strip_brackets : string -> string
(** An array value without its brackets. *)
