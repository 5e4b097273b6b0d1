(** Statistics collectors for experiments. *)

module Stats : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float

  val percentile : t -> float -> float
  (** [percentile t 0.5] is the median (nearest-rank on the collected
      samples). 0 when empty. *)

  val values : t -> float list

  val absorb : t -> t -> unit
  (** [absorb t src] re-adds every sample of [src] into [t] in [src]'s
      insertion order — the same floating-point operation sequence as
      adding them to [t] directly, so merging per-rep collectors in rep
      order reproduces the sequential run's statistics exactly. *)
end

module Histogram : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t
  val add : t -> float -> unit
  (** Out-of-range samples clamp into the edge bins. *)

  val total : t -> int

  val absorb : t -> t -> unit
  (** Add [src]'s bin counts into [t]. @raise Invalid_argument unless
      both histograms share range and bin count. *)

  val bin_edges : t -> (float * float) array
  val counts : t -> int array
  val density : t -> float array
  (** Normalised so the bins sum to 1 (zeros when empty). *)
end
