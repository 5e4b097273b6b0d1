type entry = { at : float; ev : Event.t }

type flow = {
  sent_msgs : int;
  sent_bytes : int;
  delivered_msgs : int;
  delivered_bytes : int;
  dropped_msgs : int;
  dropped_bytes : int;
  blocked_msgs : int;
  blocked_bytes : int;
}

type mutable_flow = {
  mutable f_sent_msgs : int;
  mutable f_sent_bytes : int;
  mutable f_delivered_msgs : int;
  mutable f_delivered_bytes : int;
  mutable f_dropped_msgs : int;
  mutable f_dropped_bytes : int;
  mutable f_blocked_msgs : int;
  mutable f_blocked_bytes : int;
}

(* A specialised table: the per-message accounting path would otherwise
   pay for polymorphic hashing and comparison on every event. *)
module Str_tbl = Hashtbl.Make (String)

type t = {
  cap : int;
  buf : entry array;
  mutable start : int;
  mutable len : int;
  mutable evicted : int;
  mutable last_at : float;
  kinds : int array;  (* per Event.kind_index *)
  tags : mutable_flow Str_tbl.t;
  mutable phases_rev : (string * float) list;
  mutable observers : (entry -> unit) list;  (* in attach order *)
}

let dummy = { at = 0.; ev = Event.Crash { node = -1 } }

let create ?(capacity = 1_048_576) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity";
  {
    cap = capacity;
    buf = Array.make capacity dummy;
    start = 0;
    len = 0;
    evicted = 0;
    last_at = 0.;
    kinds = Array.make Event.kind_count 0;
    tags = Str_tbl.create 16;
    phases_rev = [];
    observers = [];
  }

let observe t f = t.observers <- t.observers @ [ f ]

let length t = t.len
let evicted t = t.evicted
let total t = t.len + t.evicted
let last_at t = t.last_at

let flow_for t tag =
  match Str_tbl.find_opt t.tags tag with
  | Some f -> f
  | None ->
      let f =
        {
          f_sent_msgs = 0;
          f_sent_bytes = 0;
          f_delivered_msgs = 0;
          f_delivered_bytes = 0;
          f_dropped_msgs = 0;
          f_dropped_bytes = 0;
          f_blocked_msgs = 0;
          f_blocked_bytes = 0;
        }
      in
      Str_tbl.add t.tags tag f;
      f

let account t (ev : Event.t) =
  let k = Event.kind_index ev in
  t.kinds.(k) <- t.kinds.(k) + 1;
  match ev with
  | Event.Send { tag; bytes; _ } ->
      let f = flow_for t tag in
      f.f_sent_msgs <- f.f_sent_msgs + 1;
      f.f_sent_bytes <- f.f_sent_bytes + bytes
  | Event.Deliver { tag; bytes; _ } ->
      let f = flow_for t tag in
      f.f_delivered_msgs <- f.f_delivered_msgs + 1;
      f.f_delivered_bytes <- f.f_delivered_bytes + bytes
  | Event.Drop { tag; bytes; reason; _ } ->
      let f = flow_for t tag in
      if reason = Event.Blocked then begin
        f.f_blocked_msgs <- f.f_blocked_msgs + 1;
        f.f_blocked_bytes <- f.f_blocked_bytes + bytes
      end
      else begin
        f.f_dropped_msgs <- f.f_dropped_msgs + 1;
        f.f_dropped_bytes <- f.f_dropped_bytes + bytes
      end
  | Event.Span_begin _ | Event.Span_end _ | Event.Commit_append _
  | Event.Suspect _ | Event.Clear _ | Event.Expose _ | Event.Violation _
  | Event.Block_accept _ | Event.Crash _ | Event.Restart _
  | Event.Conn_down _ | Event.Conn_up _ | Event.Unknown_tag _
  | Event.Malformed _ | Event.Submit _ ->
      ()

let rec notify entry = function
  | [] -> ()
  | f :: rest ->
      f entry;
      notify entry rest

let emit t ~at ev =
  account t ev;
  let entry = { at; ev } in
  let slot = (t.start + t.len) mod t.cap in
  t.buf.(slot) <- entry;
  if t.len < t.cap then t.len <- t.len + 1
  else begin
    t.start <- (t.start + 1) mod t.cap;
    t.evicted <- t.evicted + 1
  end;
  if at > t.last_at then t.last_at <- at;
  notify entry t.observers

let events t =
  List.init t.len (fun i -> t.buf.((t.start + i) mod t.cap))

let kind_counts t =
  List.init Event.kind_count (fun i -> (Event.kind_label i, t.kinds.(i)))
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let count t kind =
  Option.value (List.assoc_opt kind (kind_counts t)) ~default:0

let tag_flows t =
  Str_tbl.fold
    (fun tag f acc ->
      ( tag,
        {
          sent_msgs = f.f_sent_msgs;
          sent_bytes = f.f_sent_bytes;
          delivered_msgs = f.f_delivered_msgs;
          delivered_bytes = f.f_delivered_bytes;
          dropped_msgs = f.f_dropped_msgs;
          dropped_bytes = f.f_dropped_bytes;
          blocked_msgs = f.f_blocked_msgs;
          blocked_bytes = f.f_blocked_bytes;
        } )
      :: acc)
    t.tags []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let note_phase t name seconds =
  match List.assoc_opt name t.phases_rev with
  | Some _ ->
      t.phases_rev <-
        List.map
          (fun (n, v) -> if String.equal n name then (n, v +. seconds) else (n, v))
          t.phases_rev
  | None -> t.phases_rev <- (name, seconds) :: t.phases_rev

let phases t = List.rev t.phases_rev
