(** Append-only binary encoder.

    Every protocol message in the reproduction is rendered through this
    module, which makes the bandwidth figures exact: the simulator
    charges each message its encoded size in bytes. *)

type t

val create : ?initial_size:int -> unit -> t
val length : t -> int

val u8 : t -> int -> unit
(** One byte; the value must be in [\[0, 255\]]. *)

val u16 : t -> int -> unit
(** Two bytes, big-endian. *)

val u32 : t -> int -> unit
(** Four bytes, big-endian; value in [\[0, 2^32)]. *)

val u64 : t -> int -> unit
(** Eight bytes, big-endian; OCaml ints are 63-bit so the top bit is
    always zero. *)

val varint : t -> int -> unit
(** LEB128-style variable-length unsigned integer (1 byte for values
    below 128; protocol counters are usually tiny). *)

val fixed : t -> string -> unit
(** Raw bytes, no length prefix (for fixed-size fields like hashes). *)

val bytes : t -> string -> unit
(** Varint length prefix followed by the bytes. *)

val list : t -> ('a -> unit) -> 'a list -> unit
(** Varint count followed by each element encoded by the callback. *)

val contents : t -> string

val reset : t -> unit
(** Drop the contents, keep the allocated storage — the pooled-buffer
    encode path reuses one writer across messages. *)
