module Event = Lo_obs.Event

type 'fd state = Down | Connecting of 'fd | Up of 'fd
type io = Wrote of int | Again | Failed of string

type 'fd env = {
  self : int;
  emit : Event.t -> unit;
  rng : Lo_net.Rng.t;
  faults : Faulty_link.spec;
  defer : float -> (unit -> unit) -> unit;
  write : 'fd -> Bytes.t -> int -> int -> io;
  release : 'fd -> unit;
  scratch : Bytes.t;
}

(* One queued wire write. [pbytes] is the payload size the trace
   charges (frame overhead is not accounted, matching the DES).
   [accounted] entries (truncation prefixes) carried their Drop when
   they were created, so losing them later charges nothing. *)
type entry = {
  bytes : string;
  tag : string;
  pbytes : int;
  accounted : bool;
  mutable off : int;
}

type item = Data of entry | Cut  (** close the connection here *)

type 'fd t = {
  env : 'fd env;
  peer : int;
  mutable state : 'fd state;
  queue : item Queue.t;
  mutable queued_bytes : int;  (** unwritten bytes across the queue *)
  backoff : Reconnect.t;
  mutable last_progress : float;
      (** connect start, then the last write progress or the time a
          frame was queued on the idle link *)
}

let max_queue_bytes = 1 lsl 18
let connect_timeout = 1.0
let stall_timeout = 4.0

let create env ~peer =
  {
    env;
    peer;
    state = Down;
    queue = Queue.create ();
    queued_bytes = 0;
    backoff = Reconnect.create ~rng:env.rng ();
    last_progress = 0.;
  }

let state l = l.state
let idle l = Queue.is_empty l.queue

let charge_send l ~tag ~pbytes =
  l.env.emit
    (Event.Send { src = l.env.self; dst = l.peer; tag; bytes = pbytes })

let charge_drop l ~tag ~pbytes reason =
  l.env.emit
    (Event.Drop { src = l.env.self; dst = l.peer; tag; bytes = pbytes; reason })

(* Tail drop: a frame that would push the unwritten bytes past the cap
   is refused. The queue only backs up this far when the peer is down
   or stalled; the trace says it was the queue. The first frame queued
   on an idle up link starts its stall clock: idle time is not a stall. *)
let enqueue l ~now ~tag ~pbytes ~accounted frame =
  let blen = String.length frame in
  if l.queued_bytes + blen > max_queue_bytes then begin
    if not accounted then charge_drop l ~tag ~pbytes Event.Overflow
  end
  else begin
    (match l.state with
    | Up _ when idle l -> l.last_progress <- now
    | Down | Connecting _ | Up _ -> ());
    Queue.add (Data { bytes = frame; tag; pbytes; accounted; off = 0 }) l.queue;
    l.queued_bytes <- l.queued_bytes + blen
  end

let charge_and_enqueue l ~now ~tag ~pbytes frame =
  charge_send l ~tag ~pbytes;
  enqueue l ~now ~tag ~pbytes ~accounted:false frame

let send l ~now ~tag ~payload frame =
  let pbytes = String.length payload in
  let frame = Lazy.force frame in
  match
    Faulty_link.decide l.env.faults l.env.rng ~frame_len:(String.length frame)
  with
  | Faulty_link.Pass -> charge_and_enqueue l ~now ~tag ~pbytes frame
  | Faulty_link.Drop ->
      (* The wire ate it whole: charged and immediately lost. *)
      charge_send l ~tag ~pbytes;
      charge_drop l ~tag ~pbytes Event.Loss
  | Faulty_link.Duplicate ->
      charge_and_enqueue l ~now ~tag ~pbytes frame;
      charge_and_enqueue l ~now ~tag ~pbytes frame
  | Faulty_link.Delay d ->
      (* Charged when it enters the queue, [d] from now: the host's
         timers freeze at quiesce, so a delay past the horizon is never
         charged. *)
      l.env.defer d (fun () ->
          charge_and_enqueue l ~now:(now +. d) ~tag ~pbytes frame)
  | Faulty_link.Truncate keep ->
      (* The peer sees a prefix then EOF: its decoder discards the
         partial tail. Charged as a loss up front. *)
      charge_send l ~tag ~pbytes;
      charge_drop l ~tag ~pbytes Event.Loss;
      enqueue l ~now ~tag ~pbytes ~accounted:true (String.sub frame 0 keep);
      Queue.add Cut l.queue
  | Faulty_link.Garble ->
      (* Same payload under an alien tag, which the receiver surfaces
         as unknown; charged under that tag, so conservation holds. *)
      let tag = Faulty_link.garble_tag in
      charge_and_enqueue l ~now ~tag ~pbytes
        (Frame.encode ~src:l.env.self ~tag payload)

(* --- connection life --- *)

let connecting l ~now fd =
  l.state <- Connecting fd;
  l.last_progress <- now

let established l ~now =
  match l.state with
  | Connecting fd ->
      l.state <- Up fd;
      l.last_progress <- now;
      let attempts = Reconnect.attempts l.backoff + 1 in
      l.env.emit (Event.Conn_up { node = l.env.self; peer = l.peer; attempts });
      Reconnect.opened l.backoff
  | Down | Up _ -> ()

(* The partly written head frame, if any, can never be completed on a
   later connection (the peer's decoder discards the partial tail at
   EOF), so it is dropped and charged here. *)
let down l ~now ~reason =
  match l.state with
  | Down -> ()
  | Connecting fd | Up fd ->
      l.env.release fd;
      let was_up = match l.state with Up _ -> true | _ -> false in
      l.state <- Down;
      (match Queue.peek_opt l.queue with
      | Some (Data e) when e.off > 0 ->
          ignore (Queue.pop l.queue);
          l.queued_bytes <- l.queued_bytes - (String.length e.bytes - e.off);
          if not e.accounted then
            charge_drop l ~tag:e.tag ~pbytes:e.pbytes Event.Down
      | _ -> ());
      if was_up then begin
        l.env.emit
          (Event.Conn_down { node = l.env.self; peer = l.peer; reason });
        Reconnect.lost l.backoff ~now
      end
      else Reconnect.failed l.backoff ~now

let upkeep l ~now =
  (match l.state with
  | Connecting _ when now -. l.last_progress > connect_timeout ->
      down l ~now ~reason:"connect-timeout"
  | Up _ when (not (idle l)) && now -. l.last_progress > stall_timeout ->
      down l ~now ~reason:"stalled"
  | _ -> ());
  l.state = Down && Reconnect.ready l.backoff ~now

let read_fd l = match l.state with Up fd -> Some fd | _ -> None

let write_fd l =
  match l.state with
  | Connecting fd -> Some fd
  | Up fd when not (idle l) -> Some fd
  | _ -> None

(* --- writes --- *)

(* Pop the frames the [k] written bytes complete; a partly written one
   keeps its offset. [k] never reaches past a Cut (a write takes its
   bytes from the Data run before it). Returns the frames popped. *)
let advance l ~now k =
  l.queued_bytes <- l.queued_bytes - k;
  l.last_progress <- now;
  let rem = ref k and popped = ref 0 in
  while !rem > 0 do
    match Queue.peek l.queue with
    | Data d ->
        let len = String.length d.bytes - d.off in
        if !rem >= len then begin
          ignore (Queue.pop l.queue);
          rem := !rem - len;
          incr popped
        end
        else begin
          d.off <- d.off + !rem;
          rem := 0
        end
    | Cut -> assert false
  done;
  !popped

(* The bytes for one write: the head frame in place when it is alone in
   the queue or fills the scratch buffer on its own, else the run of
   Data entries at the head of the queue (stopping at a Cut or a full
   scratch) gathered into it. *)
let pick l (e : entry) =
  let scratch = l.env.scratch in
  let head = String.length e.bytes - e.off in
  if head >= Bytes.length scratch || Queue.length l.queue = 1 then
    (Bytes.unsafe_of_string e.bytes, e.off, head)
  else begin
    let total = ref 0 in
    (try
       Queue.iter
         (function
           | Cut -> raise Exit
           | Data d ->
               let len = String.length d.bytes - d.off in
               if !total + len > Bytes.length scratch then raise Exit;
               Bytes.blit_string d.bytes d.off scratch !total len;
               total := !total + len)
         l.queue
     with Exit -> ());
    (scratch, 0, !total)
  end

let rec flush l ~now =
  match (l.state, Queue.peek_opt l.queue) with
  | Up fd, Some (Data e) -> (
      let buf, off, total = pick l e in
      match l.env.write fd buf off total with
      | Wrote k ->
          let popped = advance l ~now k in
          if k < total then popped else popped + flush l ~now
      | Again -> 0
      | Failed reason ->
          down l ~now ~reason;
          0)
  | Up _, Some Cut ->
      ignore (Queue.pop l.queue);
      (* Graceful FIN: frames written before the cut are delivered;
         the peer sees EOF mid-frame and discards the partial tail. *)
      down l ~now ~reason:"cut";
      0
  | _ -> 0

let shutdown l =
  Queue.iter
    (function
      | Data e when not e.accounted ->
          charge_drop l ~tag:e.tag ~pbytes:e.pbytes
            (if e.off > 0 then Event.Down else Event.In_flight)
      | Data _ | Cut -> ())
    l.queue;
  match l.state with
  | Connecting fd | Up fd ->
      l.state <- Down;
      l.env.release fd
  | Down -> ()
