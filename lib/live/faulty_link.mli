(** Seeded fault injection at the wire-frame layer.

    A [spec] gives independent per-frame probabilities for each fault
    kind; {!decide} consumes one uniform draw from the caller's rng and
    maps it to at most one [action] per frame (the probabilities are
    stacked, so their sum must stay <= 1). The host applies the action
    to the fully encoded frame just before it enters a peer's write
    queue ({!Link}, which also charges each action to the trace),
    which is the closest a single process can get to a lossy kernel:
    drops and truncations exercise the receiver's incremental decoder
    against real partial data, duplicates exercise protocol
    idempotency, delays reorder frames across the stream, and garbling
    rewrites the frame under an alien tag to exercise the mux
    unknown-tag path without desynchronising the stream. *)

type spec = {
  drop : float;  (** frame vanishes entirely *)
  dup : float;  (** frame is sent twice back-to-back *)
  delay : float;  (** frame is held for a random time before queueing *)
  delay_max : float;  (** upper bound on that hold, seconds *)
  truncate : float;
      (** only a proper prefix is written, then the connection is cut *)
  garble : float;
      (** payload re-framed under an unknown tag (["zz:chaos"]) *)
}

type action =
  | Pass
  | Drop
  | Duplicate
  | Delay of float  (** seconds to hold the frame *)
  | Truncate of int  (** wire bytes of the encoded frame to keep *)
  | Garble

val none : spec
(** All rates zero: {!decide} always returns [Pass]. *)

val garble_tag : string
(** The replacement tag for garbled frames; uses a protocol prefix no
    real subscriber claims, so receivers surface it as [Unknown_tag]. *)

val validate : spec -> unit
(** @raise Invalid_argument if any rate is outside [0,1], the rates sum
    above 1, or [delay_max] is not positive while [delay > 0]. *)

val decide : spec -> Lo_net.Rng.t -> frame_len:int -> action
(** One decision for a frame of [frame_len] encoded bytes. Consumes one
    rng draw for the branch plus at most one more for the action's
    parameter, so the decision stream is a deterministic function of
    the rng state. Frames too short to truncate pass instead. *)
