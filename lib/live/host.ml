module Rng = Lo_net.Rng
module Signer = Lo_crypto.Signer
open Lo_core

type signer = [ `Simulation | `Schnorr ]

type config = {
  id : int;
  n : int;
  base_port : int;
  seed : int;
  tps : float;
  duration : float;
  epoch : float;
  incarnation : int;
  resume_from : string list;
  faults : Faulty_link.spec;
  signer : signer;
}

let drain = 3.0

let default_base_port = 7350

let config ~id ~n ?(base_port = default_base_port) ?(seed = 1) ?(tps = 20.)
    ?(duration = 10.) ?(incarnation = 0)
    ?(resume_from = []) ?(faults = Faulty_link.none) ?(signer = `Simulation)
    ~epoch () =
  if n <= 0 then invalid_arg "Host.config: n";
  if id < 0 || id >= n then invalid_arg "Host.config: id";
  if incarnation < 0 then invalid_arg "Host.config: incarnation";
  if incarnation > 0 && resume_from = [] then
    invalid_arg "Host.config: incarnation > 0 needs resume_from";
  Faulty_link.validate faults;
  {
    id;
    n;
    base_port;
    seed;
    tps;
    duration;
    epoch;
    incarnation;
    resume_from;
    faults;
    signer;
  }

type stats = {
  submitted : int;
  frames_out : int;
  frames_in : int;
  unknown : int;
  trace_events : int;
  reconnects : int;
}

(* How long the post-quiesce loop must stay silent (no frame in or out)
   before the node may exit early; bounded above by [drain]. *)
let quiet_exit = 1.0

(* Per-peer cap on queued unwritten wire bytes; beyond it new frames
   are refused with an accounted drop (tail drop). *)
let max_queue_bytes = 1 lsl 18

(* An established connection with queued bytes but no write progress
   for this long is declared half-open and torn down. *)
let stall_timeout = 4.0

(* A connect attempt (SYN sent, not yet established) older than this is
   abandoned; localhost either answers or refuses almost instantly. *)
let connect_timeout = 1.0

let loopback = Unix.inet_addr_loopback

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* --- per-peer outgoing link -------------------------------------- *)

(* One queued wire write. [pbytes] is the payload size the trace
   charges (frame overhead is not accounted, matching the DES).
   [accounted] entries already carried their Drop event when they were
   created (fault-injected truncation prefixes), so losing them later
   must not charge bandwidth again. *)
type wire_entry = {
  bytes : string;
  tag : string;
  pbytes : int;
  accounted : bool;
  mutable off : int;
}

type wire_item =
  | Data of wire_entry
  | Cut  (** close the connection here (fault-injected truncation) *)

(* Outgoing connection state machine per peer:
   fd = None                 -> Down (reconnect clock armed)
   fd = Some _, up = false   -> Connecting (await writability)
   fd = Some _, up = true    -> Up (drain queue as select allows) *)
type link = {
  peer : int;
  addr : Unix.sockaddr;
  mutable fd : Unix.file_descr option;
  mutable up : bool;
  queue : wire_item Queue.t;
  mutable queued_bytes : int;  (** unwritten bytes across the queue *)
  backoff : Reconnect.t;
  mutable ever_up : bool;
  mutable last_progress : float;
      (** rel time of the last write progress (or connect start) *)
}

let run ?trace_path cfg =
  let {
    id;
    n;
    base_port;
    seed;
    tps;
    duration;
    epoch;
    incarnation;
    resume_from;
    faults;
    signer;
  } =
    cfg
  in
  (* The simulator's world derivation: every process reconstructs all n
     identities (which also populates the simulation scheme's
     verification registry) and the seed-determined overlay, so the
     cluster agrees on directory and topology without any coordination
     traffic — and a respawned incarnation re-derives the exact identity
     its predecessor held. *)
  let scheme =
    match signer with
    | `Simulation -> Signer.simulation ()
    | `Schnorr -> Signer.schnorr
  in
  let { Deployment.signers; directory; topology; client } =
    Deployment.derive ~scheme ~n ~seed ()
  in
  (* Only the trace's counters and its write-ahead observer are read, so
     the ring keeps a single entry. *)
  let trace = Lo_obs.Trace.create ~capacity:1 () in
  let now_rel () = Clock.now_s () -. epoch in
  let emit ev = Lo_obs.Trace.emit trace ~at:(now_rel ()) ev in

  (* --- write-ahead trace ---
     Every event is appended to [wal] the moment it is emitted (the
     trace observer sees the node's own emissions too) and flushed to
     disk once per loop iteration, *before* any socket write of that
     iteration. The ordering is the crash-safety contract: a frame can
     only reach a peer after the Send that charged it is durable, so a
     SIGKILL leaves per-tag deficits that are strictly positive (sent
     >= delivered + dropped) and the supervisor can close them with
     synthetic crash drops — and a respawned incarnation can rebuild
     its commitment log from its own durable prefix without ever
     signing a conflicting history. *)
  let wal = Buffer.create 65536 in
  let wal_oc =
    match trace_path with
    | Some path ->
        let oc = open_out path in
        Lo_obs.Trace.observe trace (Lo_obs.Jsonl.add_line wal);
        Some oc
    | None -> None
  in
  let wal_flush () =
    match wal_oc with
    | Some oc when Buffer.length wal > 0 ->
        Buffer.output_buffer oc wal;
        Buffer.clear wal;
        flush oc
    | _ -> ()
  in

  (* --- sockets --- *)
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (loopback, base_port + id));
  Unix.listen listener (2 * n);
  Unix.set_nonblock listener;

  (* Link-layer randomness (backoff jitter, fault draws) is seeded per
     (cluster seed, node, incarnation): deterministic given the chaos
     plan, decorrelated across nodes and across lives of one node. *)
  let link_rng =
    Rng.create
      ((((seed * 1_000_003) + id) lxor 0x7f4a7c15) + (incarnation * 7919))
  in
  let reconnects = ref 0 in
  let links =
    Array.init n (fun j ->
        {
          peer = j;
          addr = Unix.ADDR_INET (loopback, base_port + j);
          fd = None;
          up = false;
          queue = Queue.create ();
          queued_bytes = 0;
          backoff = Reconnect.create ~rng:link_rng ();
          ever_up = false;
          last_progress = 0.;
        })
  in
  let link_fd_up l = match l.fd with Some fd when l.up -> Some fd | _ -> None in

  (* Tear down [l]'s connection (established or in progress). The
     partially written head frame, if any, can never be completed on a
     future connection — the peer's decoder will discard the partial
     tail at EOF — so it is dropped and charged here. *)
  let link_down l ~reason =
    match l.fd with
    | None -> ()
    | Some fd ->
        close_quietly fd;
        l.fd <- None;
        let was_up = l.up in
        l.up <- false;
        (match Queue.peek_opt l.queue with
        | Some (Data e) when e.off > 0 ->
            ignore (Queue.pop l.queue);
            l.queued_bytes <- l.queued_bytes - (String.length e.bytes - e.off);
            if not e.accounted then
              emit
                (Lo_obs.Event.Drop
                   {
                     src = id;
                     dst = l.peer;
                     tag = e.tag;
                     bytes = e.pbytes;
                     reason = Lo_obs.Event.Down;
                   })
        | _ -> ());
        if was_up then begin
          emit (Lo_obs.Event.Conn_down { node = id; peer = l.peer; reason });
          Reconnect.lost l.backoff ~now:(now_rel ())
        end
        else Reconnect.failed l.backoff ~now:(now_rel ())
  in
  let link_established l =
    (match l.fd with
    | Some fd -> (
        try Unix.setsockopt fd Unix.TCP_NODELAY true
        with Unix.Unix_error _ -> ())
    | None -> ());
    l.up <- true;
    l.last_progress <- now_rel ();
    emit
      (Lo_obs.Event.Conn_up
         { node = id; peer = l.peer; attempts = Reconnect.attempts l.backoff + 1 });
    if l.ever_up then incr reconnects;
    l.ever_up <- true;
    Reconnect.opened l.backoff
  in
  (* A connecting socket turned writable: either established or failed;
     SO_ERROR tells which. *)
  let link_finish_connect l =
    match l.fd with
    | None -> ()
    | Some fd -> (
        match Unix.getsockopt_error fd with
        | None -> link_established l
        | Some _ -> link_down l ~reason:"refused")
  in
  let link_start_connect l =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    l.last_progress <- now_rel ();
    match Unix.connect fd l.addr with
    | () ->
        l.fd <- Some fd;
        link_established l
    | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EINTR), _, _) ->
        (* EINTR: POSIX continues the connect asynchronously. *)
        l.fd <- Some fd
    | exception Unix.Unix_error _ ->
        close_quietly fd;
        Reconnect.failed l.backoff ~now:(now_rel ())
  in

  (* --- transport state --- *)
  let timers = Timer_wheel.create () in
  let subs : (string, Lo_transport.handler) Hashtbl.t = Hashtbl.create 4 in
  let restart_handler = ref (fun () -> ()) in
  let local : (string * string) Queue.t = Queue.create () in
  let submitted = ref 0 in
  let frames_out = ref 0 in
  let frames_in = ref 0 in
  let unknown = ref 0 in
  let last_activity = ref 0. in

  (* Queue one encoded frame on [l]; the Send was already charged.
     Tail drop when the peer's buffer is full: the frame is refused and
     charged as a Down drop (the buffer only backs up when the peer is
     down or stalled), keeping conservation exact. *)
  let enqueue_frame l ~tag ~pbytes ~accounted frame =
    let blen = String.length frame in
    if l.queued_bytes + blen > max_queue_bytes then begin
      if not accounted then
        emit
          (Lo_obs.Event.Drop
             {
               src = id;
               dst = l.peer;
               tag;
               bytes = pbytes;
               reason = Lo_obs.Event.Down;
             })
    end
    else begin
      Queue.add (Data { bytes = frame; tag; pbytes; accounted; off = 0 }) l.queue;
      l.queued_bytes <- l.queued_bytes + blen
    end
  in
  let charge_and_enqueue ~dst ~tag ~pbytes frame =
    emit (Lo_obs.Event.Send { src = id; dst; tag; bytes = pbytes });
    enqueue_frame links.(dst) ~tag ~pbytes ~accounted:false frame
  in
  (* Remote send with the encoded frame passed lazily: a fan-out
     ([send_many]) shares one encoding across all destinations — the
     first destination pays the encode, the rest reuse the string. *)
  let send_remote ~dst ~tag ~pbytes payload frame =
    let frame = Lazy.force frame in
    match Faulty_link.decide faults link_rng ~frame_len:(String.length frame)
    with
    | Faulty_link.Pass -> charge_and_enqueue ~dst ~tag ~pbytes frame
    | Faulty_link.Drop ->
        (* The wire ate it whole: charged and immediately lost. *)
        emit (Lo_obs.Event.Send { src = id; dst; tag; bytes = pbytes });
        emit
          (Lo_obs.Event.Drop
             { src = id; dst; tag; bytes = pbytes; reason = Lo_obs.Event.Loss })
    | Faulty_link.Duplicate ->
        charge_and_enqueue ~dst ~tag ~pbytes frame;
        charge_and_enqueue ~dst ~tag ~pbytes frame
    | Faulty_link.Delay d ->
        (* Charged when it actually enters the queue; timers freeze at
           quiesce, so a delay past the horizon is never charged. *)
        Timer_wheel.schedule timers
          ~at:(now_rel () +. d)
          (fun () -> charge_and_enqueue ~dst ~tag ~pbytes frame)
    | Faulty_link.Truncate keep ->
        (* The peer sees a prefix then EOF: its decoder discards the
           partial tail. Charged as a loss up front; the prefix entry
           is marked accounted so no later drop double-charges it. *)
        emit (Lo_obs.Event.Send { src = id; dst; tag; bytes = pbytes });
        emit
          (Lo_obs.Event.Drop
             { src = id; dst; tag; bytes = pbytes; reason = Lo_obs.Event.Loss });
        let l = links.(dst) in
        enqueue_frame l ~tag ~pbytes ~accounted:true (String.sub frame 0 keep);
        Queue.add Cut l.queue
    | Faulty_link.Garble ->
        (* Same payload under an alien tag: parses as a valid frame,
           exercises the receiver's unknown-tag path. Charged under
           the replacement tag so per-tag conservation still holds. *)
        let gtag = Faulty_link.garble_tag in
        charge_and_enqueue ~dst ~tag:gtag ~pbytes
          (Frame.encode ~src:id ~tag:gtag payload)
  in
  let send_local ~tag payload =
    emit
      (Lo_obs.Event.Send
         { src = id; dst = id; tag; bytes = String.length payload });
    Queue.add (tag, payload) local
  in
  let send_to ~dst ~tag payload =
    if dst = id then send_local ~tag payload
    else
      send_remote ~dst ~tag ~pbytes:(String.length payload) payload
        (lazy (Frame.encode ~src:id ~tag payload))
  in
  let transport =
    {
      Lo_transport.self = id;
      now = now_rel;
      send = (fun ~dst ~tag payload -> send_to ~dst ~tag payload);
      send_many =
        (fun ~dsts ~tag payload ->
          let pbytes = String.length payload in
          let frame = lazy (Frame.encode ~src:id ~tag payload) in
          List.iter
            (fun dst ->
              if dst = id then send_local ~tag payload
              else send_remote ~dst ~tag ~pbytes payload frame)
            dsts);
      schedule =
        (fun ~delay fn ->
          Timer_wheel.schedule timers ~at:(now_rel () +. delay) fn);
      subscribe = (fun ~proto handler -> Hashtbl.replace subs proto handler);
      set_restart_handler = (fun fn -> restart_handler := fn);
      trace = Some trace;
    }
  in

  let node =
    Node.create
      (Node.default_config scheme)
      ~transport
      ~rng:(Rng.create (((seed * 1_000_003) + id) lxor 0x5bd1e995))
      ~directory ~signer:signers.(id)
      ~neighbors:(Lo_net.Topology.neighbors topology id)
      ~behavior:Node.Honest
  in

  (* --- restart restoration ---
     Before any traffic: rebuild the commitment log from this node's
     own durable trace (crash amnesia would otherwise make the fresh
     log's digests conflict with the pre-crash history still held by
     peers — indistinguishable from equivocation), close the spans the
     previous incarnation left open, and re-arm its standing suspicions
     so the reconciler's restart path re-probes and withdraws them. *)
  if incarnation > 0 then begin
    match Resume.scan ~node:id resume_from with
    | Error msg ->
        failwith (Printf.sprintf "lo serve %d: resume failed: %s" id msg)
    | Ok r ->
        let log = Node.commitment_log node in
        List.iter
          (fun ids ->
            match Commitment.Log.append log ~source:None ~ids with
            | Some _ -> ()
            | None ->
                failwith
                  (Printf.sprintf "lo serve %d: resume lost a bundle" id))
          r.Resume.bundles;
        if Commitment.Log.seq log <> r.Resume.last_seq then
          failwith
            (Printf.sprintf "lo serve %d: resume seq mismatch (%d <> %d)" id
               (Commitment.Log.seq log) r.Resume.last_seq);
        List.iter
          (fun key ->
            emit (Lo_obs.Event.Span_end { node = id; key; ok = false }))
          r.Resume.open_spans;
        let acc = Node.accountability node in
        List.iter
          (fun peer ->
            if peer >= 0 && peer < n && peer <> id then
              Accountability.suspect acc
                ~peer:(Directory.id_of directory peer)
                ~now:(now_rel ()) ~reason:"restored after restart")
          r.Resume.suspects
  end;

  (* Set once the loop first observes relative time >= 0 and the node's
     protocol has been started (handlers registered). Until then "lo"
     frames take the generic subscriber path and surface as unknown. *)
  let started = ref false in
  let dispatch ~from ~tag payload =
    emit
      (Lo_obs.Event.Deliver
         { src = from; dst = id; tag; bytes = String.length payload });
    match Hashtbl.find_opt subs (Lo_net.Mux.proto_of_tag tag) with
    | Some handler -> handler ~from ~tag payload
    | None ->
        incr unknown;
        emit (Lo_obs.Event.Unknown_tag { node = id; src = from; tag })
  in
  (* Wire ingress, zero-copy: the payload stays a reader view into the
     connection's receive buffer. The protocol fast path hands the view
     straight to the node ([Node.handle_message_view] — for [Tx_batch]
     that is the batched admission pipeline); only foreign-protocol
     subscribers, which expect a string payload, force a copy. The view
     dies with this call, well before the decoder is touched again. *)
  let handle_view (v : Frame.Decoder.view) =
    incr frames_in;
    last_activity := now_rel ();
    let pbytes = Lo_codec.Reader.remaining v.Frame.Decoder.v_payload in
    emit
      (Lo_obs.Event.Deliver
         { src = v.Frame.Decoder.v_src; dst = id; tag = v.Frame.Decoder.v_tag;
           bytes = pbytes });
    if v.Frame.Decoder.v_version <> Frame.version then begin
      (* A peer speaking a newer framing: account the delivery, then
         surface the skew instead of losing the message silently. *)
      incr unknown;
      emit
        (Lo_obs.Event.Unknown_tag
           {
             node = id;
             src = v.Frame.Decoder.v_src;
             tag =
               Printf.sprintf "v%d:%s" v.Frame.Decoder.v_version
                 v.Frame.Decoder.v_tag;
           })
    end
    else begin
      let tag = v.Frame.Decoder.v_tag in
      let from = v.Frame.Decoder.v_src in
      if !started && String.equal (Lo_net.Mux.proto_of_tag tag) "lo" then
        Node.handle_message_view node ~from ~tag v.Frame.Decoder.v_payload
      else
        match Hashtbl.find_opt subs (Lo_net.Mux.proto_of_tag tag) with
        | Some handler ->
            handler ~from ~tag
              (Lo_codec.Reader.fixed v.Frame.Decoder.v_payload pbytes)
        | None ->
            incr unknown;
            emit (Lo_obs.Event.Unknown_tag { node = id; src = from; tag })
    end
  in

  (* --- workload: the simulator's generator, filtered to this node ---
     A respawned incarnation re-derives the same spec list and skips
     everything scheduled before its rebirth: those submissions are
     simply lost with the crash, as they should be. *)
  let workload_from = if incarnation = 0 then Float.neg_infinity else now_rel () in
  List.iter
    (fun spec ->
      if
        spec.Lo_workload.Tx_gen.origin mod n = id
        && spec.Lo_workload.Tx_gen.created_at >= workload_from
      then begin
        let tx =
          Tx.create ~signer:client ~fee:spec.Lo_workload.Tx_gen.fee
            ~created_at:spec.Lo_workload.Tx_gen.created_at
            ~payload:(Lo_workload.Tx_gen.payload spec)
        in
        Timer_wheel.schedule timers ~at:spec.Lo_workload.Tx_gen.created_at
          (fun () ->
            incr submitted;
            Node.submit_tx node tx)
      end)
    (Deployment.workload ~rate:tps ~duration ~seed ~n);

  (* --- event loop ---
     One unified loop from process birth: connections are attempted
     and accepted before the epoch (no blocking barrier — a respawned
     node joins a cluster that is already past it), the protocol starts
     the first time the loop observes relative time >= 0, and quiesce/
     drain behave as before. Within an iteration the order is
       timers -> local deliveries -> link upkeep -> WAL flush ->
       select -> writes -> reads
     so every byte that leaves the process was preceded by a durable
     trace record of its Send (flush before writes), and frames queued
     by this iteration's reads drain no earlier than the next
     iteration's writes — after their events are flushed too. *)
  let read_buf = Bytes.create 65536 in
  (* Scratch for coalesced writes: a burst of small frames to one peer
     goes to the kernel as ONE write(2) instead of one syscall per
     frame — the difference between ~3 and ~300 syscalls per pipelined
     reconciliation burst. *)
  let write_scratch = Bytes.create 65536 in
  (* Advance [l]'s queue past [k] written bytes: each frame written in
     full is popped and counted, a partly written one keeps its offset.
     [k] never reaches past a Cut: a write takes its bytes from the Data
     run before it. *)
  let advance l k =
    l.queued_bytes <- l.queued_bytes - k;
    l.last_progress <- now_rel ();
    let rem = ref k in
    while !rem > 0 do
      match Queue.peek l.queue with
      | Data d ->
          let len = String.length d.bytes - d.off in
          if !rem >= len then begin
            ignore (Queue.pop l.queue);
            rem := !rem - len;
            if not d.accounted then incr frames_out;
            last_activity := now_rel ()
          end
          else begin
            d.off <- d.off + !rem;
            rem := 0
          end
      | Cut -> assert false
    done
  in
  let decoders : (Unix.file_descr, Frame.Decoder.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let incoming = ref [] in
  let drop_incoming fd =
    close_quietly fd;
    Hashtbl.remove decoders fd;
    incoming := List.filter (fun f -> f != fd) !incoming
  in
  let running = ref true in
  let queues_empty () =
    Array.for_all (fun l -> Queue.is_empty l.queue) links
  in
  while !running do
    let now = now_rel () in
    if (not !started) && now >= 0. then begin
      started := true;
      Node.start node;
      if incarnation > 0 then begin
        emit (Lo_obs.Event.Restart { node = id });
        !restart_handler ()
      end;
      last_activity := now_rel ()
    end;
    if now >= duration +. drain then running := false
    else if
      now >= duration
      && now -. !last_activity >= quiet_exit
      && Queue.is_empty local && queues_empty ()
    then running := false
    else begin
      (* Quiesce at [duration]: frozen timers stop new rounds, retries
         and submissions; the cascade of in-flight replies drains. *)
      if now < duration then ignore (Timer_wheel.run_due timers ~now);
      while not (Queue.is_empty local) do
        let tag, payload = Queue.pop local in
        last_activity := now_rel ();
        dispatch ~from:id ~tag payload
      done;
      (* Link upkeep: abandon stuck connects, tear down half-open
         connections (progress stalled with bytes queued), start
         reconnects whose backoff clock has expired. *)
      Array.iter
        (fun l ->
          if l.peer <> id then begin
            (match l.fd with
            | Some _ when (not l.up) && now -. l.last_progress > connect_timeout
              ->
                link_down l ~reason:"connect-timeout"
            | Some _
              when l.up
                   && (not (Queue.is_empty l.queue))
                   && now -. l.last_progress > stall_timeout ->
                link_down l ~reason:"stalled"
            | _ -> ());
            if l.fd = None && Reconnect.ready l.backoff ~now then
              link_start_connect l
          end)
        links;
      wal_flush ();
      let reads =
        listener :: !incoming
        @ Array.fold_left
            (fun acc l ->
              match link_fd_up l with Some fd -> fd :: acc | None -> acc)
            [] links
      in
      let writes =
        Array.fold_left
          (fun acc l ->
            match l.fd with
            | Some fd when (not l.up) || not (Queue.is_empty l.queue) ->
                fd :: acc
            | _ -> acc)
          [] links
      in
      let timeout =
        let cap = 0.05 in
        if now >= duration then cap
        else
          match Timer_wheel.next_due timers with
          | Some t -> Float.max 0.001 (Float.min cap (t -. now_rel ()))
          | None -> cap
      in
      let readable, writable, _ = Retry.select reads writes [] timeout in
      (* Writes first: everything written here was charged in a
         previous iteration and is already durable. *)
      List.iter
        (fun fd ->
          match
            Array.find_opt (fun l -> l.fd = Some fd && l.peer <> id) links
          with
          | None -> ()
          | Some l ->
              if not l.up then link_finish_connect l;
              if l.up then begin
                let continue = ref true in
                while !continue && not (Queue.is_empty l.queue) do
                  match Queue.peek l.queue with
                  | Cut ->
                      ignore (Queue.pop l.queue);
                      (* Graceful FIN: frames written before the cut are
                         delivered; the peer sees EOF mid-frame and
                         discards the partial tail. *)
                      link_down l ~reason:"cut";
                      continue := false
                  | Data e -> (
                      (* Pick the bytes for one write: the head frame in
                         place when it is alone in the queue or fills the
                         scratch buffer on its own, else the run of Data
                         entries at the head of the queue (stopping at a
                         Cut or a full scratch) gathered into it. *)
                      let head = String.length e.bytes - e.off in
                      let buf, off, total =
                        if
                          head >= Bytes.length write_scratch
                          || Queue.length l.queue = 1
                        then
                          (Bytes.unsafe_of_string e.bytes, e.off, head)
                        else begin
                          let total = ref 0 in
                          (try
                             Queue.iter
                               (function
                                 | Cut -> raise Exit
                                 | Data d ->
                                     let len = String.length d.bytes - d.off in
                                     if !total + len > Bytes.length write_scratch
                                     then raise Exit;
                                     Bytes.blit_string d.bytes d.off
                                       write_scratch !total len;
                                     total := !total + len)
                               l.queue
                           with Exit -> ());
                          (write_scratch, 0, !total)
                        end
                      in
                      match Retry.write fd buf off total with
                      | 0 ->
                          link_down l ~reason:"eof";
                          continue := false
                      | k ->
                          advance l k;
                          if k < total then continue := false
                      | exception
                          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                        ->
                          continue := false
                      | exception Unix.Unix_error _ ->
                          link_down l ~reason:"reset";
                          continue := false)
                done
              end)
        writable;
      List.iter
        (fun fd ->
          if fd == listener then begin
            let continue = ref true in
            while !continue do
              match Retry.accept listener with
              | c, _ ->
                  (try Unix.setsockopt c Unix.TCP_NODELAY true
                   with Unix.Unix_error _ -> ());
                  Hashtbl.replace decoders c (Frame.Decoder.create ());
                  incoming := c :: !incoming
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  continue := false
              | exception Unix.Unix_error _ -> continue := false
            done
          end
          else if Hashtbl.mem decoders fd then begin
            match Retry.read fd read_buf 0 (Bytes.length read_buf) with
            | 0 -> drop_incoming fd
            | k -> (
                let dec = Hashtbl.find decoders fd in
                Frame.Decoder.feed_bytes dec read_buf 0 k;
                try
                  let continue = ref true in
                  while !continue do
                    match Frame.Decoder.next_view dec with
                    | Some v -> handle_view v
                    | None -> continue := false
                  done
                with Lo_codec.Reader.Malformed _ -> drop_incoming fd)
            | exception
                Unix.Unix_error
                  ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
                drop_incoming fd
          end
          else begin
            (* Readability on an outgoing connection: the peer never
               sends data on it, so this is either EOF (peer died or
               cut us — half-open detection) or junk to discard. *)
            match
              Array.find_opt (fun l -> link_fd_up l = Some fd) links
            with
            | None -> ()
            | Some l -> (
                match Retry.read fd read_buf 0 1024 with
                | 0 -> link_down l ~reason:"eof"
                | _ -> ()
                | exception
                    Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                    ()
                | exception Unix.Unix_error _ -> link_down l ~reason:"reset")
          end)
        readable
    end
  done;

  (* --- shutdown --- *)
  Array.iter
    (fun l ->
      if l.peer <> id then begin
        Queue.iter
          (function
            | Data e when not e.accounted ->
                emit
                  (Lo_obs.Event.Drop
                     {
                       src = id;
                       dst = l.peer;
                       tag = e.tag;
                       bytes = e.pbytes;
                       reason =
                         (if e.off > 0 then Lo_obs.Event.Down
                          else Lo_obs.Event.In_flight);
                     })
            | Data _ | Cut -> ())
          l.queue;
        match l.fd with Some fd -> close_quietly fd | None -> ()
      end)
    links;
  List.iter close_quietly !incoming;
  close_quietly listener;
  wal_flush ();
  (match wal_oc with Some oc -> close_out oc | None -> ());
  {
    submitted = !submitted;
    frames_out = !frames_out;
    frames_in = !frames_in;
    unknown = !unknown;
    trace_events = Lo_obs.Trace.total trace;
    reconnects = !reconnects;
  }
