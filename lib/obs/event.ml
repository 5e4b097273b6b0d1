type drop_reason = Blocked | Loss | Down | In_flight | Overflow

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
  | Span_end of { node : int; key : string; ok : bool }
  | Commit_append of { node : int; seq : int; count : int; ids : int list }
  | Suspect of { node : int; peer : int }
  | Clear of { node : int; peer : int }
  | Expose of { node : int; peer : int }
  | Violation of { node : int; peer : int; kind : string }
  | Block_accept of {
      node : int;
      creator : int;
      height : int;
      bundles : (int * int list) list;
      omitted : int list;
      appendix : int;
    }
  | Crash of { node : int }
  | Restart of { node : int }
  | Conn_down of { node : int; peer : int; reason : string }
  | Conn_up of { node : int; peer : int; attempts : int }
  | Unknown_tag of { node : int; src : int; tag : string }
  | Malformed of { node : int; src : int; tag : string }
  | Submit of { node : int; id : int }

let labels =
  [|
    "send"; "deliver"; "drop"; "span_begin"; "span_end"; "commit"; "suspect";
    "clear"; "expose"; "violation"; "block"; "crash"; "restart"; "conn_down";
    "conn_up"; "unknown_tag"; "malformed"; "submit";
  |]

let kind_index = function
  | Send _ -> 0
  | Deliver _ -> 1
  | Drop _ -> 2
  | Span_begin _ -> 3
  | Span_end _ -> 4
  | Commit_append _ -> 5
  | Suspect _ -> 6
  | Clear _ -> 7
  | Expose _ -> 8
  | Violation _ -> 9
  | Block_accept _ -> 10
  | Crash _ -> 11
  | Restart _ -> 12
  | Conn_down _ -> 13
  | Conn_up _ -> 14
  | Unknown_tag _ -> 15
  | Malformed _ -> 16
  | Submit _ -> 17

let kind_count = Array.length labels
let kind_label i = labels.(i)
let kind ev = labels.(kind_index ev)

let drop_reason_label = function
  | Blocked -> "blocked"
  | Loss -> "loss"
  | Down -> "down"
  | In_flight -> "inflight"
  | Overflow -> "overflow"

let drop_reason_of_label = function
  | "blocked" -> Some Blocked
  | "loss" -> Some Loss
  | "down" -> Some Down
  | "inflight" -> Some In_flight
  | "overflow" -> Some Overflow
  | _ -> None
