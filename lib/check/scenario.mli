(** Fuzz scenarios: plain, serialisable descriptions of one simulated
    deployment plus everything that can go wrong in it.

    A scenario is pure data — topology size, workload mix, fault-plan
    knobs, adversary assignment and schedule-perturbation knobs — and
    the run it describes is a deterministic function of that data (every
    random draw inside the run comes from [seed]). That gives the
    harness the two properties FoundationDB-style simulation testing
    rests on: any failure is replayable byte-for-byte from its JSON
    repro file, and any failing scenario can be {e shrunk} by proposing
    syntactically smaller scenarios and re-running them.

    All float fields are quantised to 3 decimals at generation time so
    the JSON round-trip ([of_json_string (to_json_string s) = Ok s]) is
    exact. *)

type adversary = { node : int; kind : string }
(** [kind] names a faulty strategy in lowercase ("silent-censor",
    "tx-censor", "block-injector", "block-reorderer",
    "blockspace-censor" or "equivocator"); {!Harness} maps it to a
    {!Lo_core.Adversary.t}, giving the predicate strategies fixed,
    documented predicates. *)

type t = {
  seed : int;  (** root seed of the run; everything derives from it *)
  nodes : int;
  rate : float;  (** Poisson workload, tx/s *)
  duration : float;  (** workload window, seconds *)
  drain : float;  (** settle time after the workload, seconds *)
  loss : float;  (** base random loss rate *)
  block_interval : float;  (** block production period; 0 disables *)
  rotate_period : float;  (** neighbour-rotation period; 0 disables *)
  timeout : float;  (** request timeout (perturbation knob) *)
  retries : int;
  backoff : float;
  jitter : float;
  reconcile_period : float;
  digest_period : float;
  adversaries : adversary list;  (** ground-truth faulty miners *)
  churn : float;  (** crash rate /s; 0 disables *)
  partition : float;  (** partition window length; 0 disables *)
  burst : float;  (** loss-burst intensity; 0 disables *)
  spikes : bool;  (** background latency spikes *)
  degrades : bool;  (** background asymmetric link degradation *)
  mutation : string;
      (** oracle-sensitivity mode: a deviation hidden from the ground
          truth ([""] = none; see {!Harness.mutations}) that the oracle
          stack must nonetheless catch *)
}

val generate : seed:int -> index:int -> t
(** The [index]-th scenario of campaign [seed]: node count, workload,
    perturbation knobs, fault dimensions and adversary assignment all
    drawn from a generator seeded by [(seed, index)] alone. *)

val describe : t -> string
(** One line: the knobs that are actually on. *)

val to_json_string : t -> string
(** Single-line JSON object with fixed field order (the repro-file
    format of [lo fuzz --replay]). *)

val of_json_string : string -> (t, string) result

val shrink_candidates : t -> t list
(** Strictly simpler variants, in the order the shrinker should try
    them: drop fault dimensions first, then adversaries, then node
    count and duration, then workload coarseness (rate, blocks,
    rotation). The [mutation] field is never dropped — it is the defect
    under investigation. *)
