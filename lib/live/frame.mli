(** Length-prefixed wire framing for the live TCP backend.

    Layout (all integers through {!Lo_codec}, big-endian):

    {v
    u32   body length (bytes that follow; <= max_body)
    u8    protocol version (currently 1)
    varint  sender's dense node index
    bytes   tag   (varint length prefix + bytes)
    bytes   payload (varint length prefix + bytes)
    v}

    The version byte is part of the body so a frame from a newer peer
    still parses structurally: the dispatcher surfaces it as an
    unknown-tag delivery instead of desynchronising the stream. The
    incremental {!Decoder} tolerates arbitrary chunking — partial
    headers, split bodies, many frames per read — which is what TCP
    provides. *)

val version : int
(** Wire version this implementation speaks (1). *)

val max_body : int
(** Upper bound on the body length (16 MiB); a larger prefix marks a
    corrupt or hostile stream. *)

val encode : src:int -> tag:string -> string -> string
(** Whole frame, ready to write. *)

(** Incremental decoder over a byte stream. *)
module Decoder : sig
  type t

  val create : unit -> t

  val feed_bytes : t -> Bytes.t -> int -> int -> unit
  (** [feed_bytes t chunk off len]: append a received slice straight
      from the read buffer. *)

  type view = {
    v_version : int;
    v_src : int;
    v_tag : string;
    v_payload : Lo_codec.Reader.t;
  }
  (** A decoded frame whose payload is a reader view {e into the
      decoder's receive buffer} — no body copy. The view (and any
      sub-views derived from it) is only valid until the decoder is
      next touched: any [feed_bytes]/[next_view] may move the underlying
      storage. Consume it fully before advancing. *)

  val next_view : t -> view option
  (** The next complete frame, if buffered. The tag and header fields
      are materialised (they are tiny); only the payload — the dominant
      bytes — is borrowed.
      @raise Lo_codec.Reader.Malformed on a corrupt stream (oversized
      length prefix or unparseable body) — and only that exception,
      whatever bytes arrive. An unparseable body is consumed before the
      exception escapes; after an oversized prefix the stream position
      itself is lost, and the caller drops the connection. *)
end
