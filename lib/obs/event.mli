(** Typed trace events.

    Every event names nodes by their dense network index (the simulator
    id); [-1] marks an identity the emitter could not resolve. Events
    carry only plain data — no closures, no mutable state — so a trace
    can be exported, parsed back and replayed by {!Audit} without loss.

    The wire-level events ([Send]/[Deliver]/[Drop]) are the simulator's
    only byte ledger: [Lo_net.Network] emits a [Send] exactly when it
    charges bytes for a message, and every such message is later
    matched by exactly one [Deliver] or one [Drop] — the bandwidth
    conservation invariant {!Audit} checks. Messages refused before any
    charge (delivery filter, down endpoint, partition) appear as [Drop]
    with reason {!Blocked} and no matching [Send]. *)

type drop_reason =
  | Blocked  (** refused at send time: filter, down endpoint, partition *)
  | Loss  (** random loss (global or per-link rate) *)
  | Down  (** destination was down when the message arrived *)
  | In_flight  (** still queued when the run's horizon cut delivery *)
  | Overflow
      (** refused by a full per-peer write queue (tail drop); only the
          live host emits it *)

type t =
  | Send of { src : int; dst : int; tag : string; bytes : int }
  | Deliver of { src : int; dst : int; tag : string; bytes : int }
  | Drop of {
      src : int;
      dst : int;
      tag : string;
      bytes : int;
      reason : drop_reason;
    }
  | Span_begin of { node : int; key : string }
      (** an operation with duration opened (e.g. one reconciliation
          exchange; key ["recon:<peer>"]) *)
  | Span_end of { node : int; key : string; ok : bool }
  | Commit_append of { node : int; seq : int; count : int; ids : int list }
      (** [node] appended bundle [seq] to its primary commitment log;
          [count] is the log's id counter after the append and [ids] the
          short ids of the bundle *)
  | Suspect of { node : int; peer : int }
  | Clear of { node : int; peer : int }  (** suspicion resolved/withdrawn *)
  | Expose of { node : int; peer : int }  (** [node] exposed [peer] *)
  | Violation of { node : int; peer : int; kind : string }
      (** [node]'s inspector flagged a block by creator [peer] *)
  | Block_accept of {
      node : int;
      creator : int;
      height : int;
      bundles : (int * int list) list;
          (** (creator bundle seq, short ids in block order) *)
      omitted : int list;  (** short ids explicitly declared omitted *)
      appendix : int;
    }
  | Crash of { node : int }
  | Restart of { node : int }
  | Conn_down of { node : int; peer : int; reason : string }
      (** a live transport lost its established connection to [peer]
          ([reason] e.g. ["eof"], ["reset"], ["stalled"], ["cut"]);
          informational — bandwidth accounting happens via [Drop] *)
  | Conn_up of { node : int; peer : int; attempts : int }
      (** a live transport (re)established its connection to [peer]
          after [attempts] connect attempts *)
  | Unknown_tag of { node : int; src : int; tag : string }
      (** [node] received a message whose tag belongs to no subscribed
          protocol (e.g. a peer speaking a newer protocol version);
          the message was counted and discarded, not silently lost *)
  | Malformed of { node : int; src : int; tag : string }
      (** [node] received a payload under [tag] that failed to decode
          (truncated or garbled bytes); it was counted and discarded *)
  | Submit of { node : int; id : int }
      (** [node]'s workload submitted the transaction with short id
          [id]. Only the live host emits it; ROADMAP item 1 moves it
          into [Node] with a declared re-pin of the simulator's traces *)

val kind : t -> string
(** Stable lowercase label per constructor (the JSONL ["ev"] field). *)

val kind_index : t -> int
(** Dense constructor number in [\[0, kind_count)], for per-kind
    counters kept in an array. *)

val kind_count : int

val kind_label : int -> string
(** [kind_label (kind_index ev) = kind ev]. *)

val drop_reason_label : drop_reason -> string
val drop_reason_of_label : string -> drop_reason option
