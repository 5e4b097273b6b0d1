(** Binary decoder matching {!Writer}.

    All decoding raises {!Malformed} on truncated or invalid input; the
    protocol layer treats such input as evidence of a faulty sender.

    A reader is a {e view}: an underlying string plus a cursor and an
    exclusive bound. {!of_substring} and {!sub_view} narrow the view
    without copying the bytes, which is what the batched wire-decode
    path uses to parse many frames/transactions out of one receive
    buffer. *)

exception Malformed of string

type t

val of_string : string -> t

val of_substring : string -> pos:int -> len:int -> t
(** A view of [len] bytes of [data] starting at [pos] — no copy.
    @raise Invalid_argument on an out-of-range window. *)

val remaining : t -> int
val at_end : t -> bool

val pos : t -> int
(** Current absolute offset into the underlying string. Useful with
    {!slice} to recover the exact wire bytes of a decoded span. *)

val slice : t -> from:int -> until:int -> string
(** The underlying bytes of [\[from, until)] (absolute offsets, as
    returned by {!pos}); [until] may not exceed the view's bound.
    @raise Invalid_argument on an out-of-range span. *)

val sub_view : t -> int -> t
(** [sub_view t n] consumes the next [n] bytes of [t] and returns a
    reader over exactly those bytes, sharing the underlying string.
    @raise Malformed if fewer than [n] bytes remain. *)

val u8 : t -> int
val u16 : t -> int
val u32 : t -> int
val u64 : t -> int
val varint : t -> int
(** LEB128, at most nine bytes; @raise Malformed on a value that does
    not fit a non-negative OCaml [int] (2^62 and up). *)

val fixed : t -> int -> string
val skip : t -> int -> unit
(** [fixed] without the copy: consumes [n] bytes, raising where
    [fixed t n] would. *)

val bytes : t -> string
val list : t -> (t -> 'a) -> 'a list

val expect_end : t -> unit
(** @raise Malformed if bytes remain before the view's bound. *)
