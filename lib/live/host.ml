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
  if base_port < 1 || base_port + n - 1 > 65535 then
    invalid_arg "Host.config: ports base_port .. base_port + n - 1";
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

(* How long the post-quiesce loop must stay silent (no frame in or out)
   before the node may exit early; bounded above by [drain]. *)
let quiet_exit = 1.0

let loopback = Unix.inet_addr_loopback

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One non-blocking socket write, as a link sees it. *)
let write_io fd buf off len : Link.io =
  match Retry.write fd buf off len with
  | 0 -> Link.Failed "eof"
  | k -> Link.Wrote k
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Link.Again
  | exception Unix.Unix_error _ -> Link.Failed "reset"

let run ?trace_path cfg =
  let { id; n; base_port; seed; duration; incarnation; _ } = cfg in
  (* The simulator's world derivation: every process reconstructs all n
     identities (which also populates the simulation scheme's
     verification registry) and the seed-determined overlay, so the
     cluster agrees on directory and topology without any coordination
     traffic — and a respawned incarnation re-derives the exact identity
     its predecessor held. *)
  let scheme =
    match cfg.signer with
    | `Simulation -> Signer.simulation ()
    | `Schnorr -> Signer.schnorr
  in
  let { Deployment.signers; directory; topology; client } =
    Deployment.derive ~scheme ~n ~seed ()
  in
  (* Only the trace's counters and its write-ahead observer are read, so
     the ring keeps a single entry; it is what [run] returns. *)
  let trace = Lo_obs.Trace.create ~capacity:1 () in
  let now_rel () = Clock.now_s () -. cfg.epoch in
  let emit ev = Lo_obs.Trace.emit trace ~at:(now_rel ()) ev in

  (* --- write-ahead trace ---
     Every event is appended to [wal] the moment it is emitted (the
     trace observer sees the node's own emissions too) and flushed to
     disk once per loop iteration, *before* any socket write of that
     iteration: the crash-safety contract in host.mli. *)
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
  let timers = Timer_wheel.create () in
  let after d fn = Timer_wheel.schedule timers ~at:(now_rel () +. d) fn in
  (* Outgoing connections by fd, so a ready fd finds its link in one
     lookup; a link's fd leaves the table when the link releases it. *)
  let outgoing = Hashtbl.create 16 in
  let env =
    {
      Link.self = id;
      emit;
      rng = link_rng;
      faults = cfg.faults;
      defer = after;
      write = write_io;
      release =
        (fun fd ->
          Hashtbl.remove outgoing fd;
          close_quietly fd);
      (* A burst of small frames to one peer leaves in ONE write(2):
         ~3 instead of ~300 syscalls per pipelined reconciliation. *)
      scratch = Bytes.create 65536;
    }
  in
  let links = Array.init n (fun peer -> Link.create env ~peer) in
  let start_connect peer l =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    Hashtbl.replace outgoing fd l;
    Link.connecting l ~now:(now_rel ()) fd;
    match Unix.connect fd (Unix.ADDR_INET (loopback, base_port + peer)) with
    | () -> Link.established l ~now:(now_rel ())
    | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EINTR), _, _) ->
        (* EINTR: POSIX continues the connect asynchronously. *)
        ()
    | exception Unix.Unix_error _ ->
        Link.down l ~now:(now_rel ()) ~reason:"refused"
  in

  (* --- transport state --- *)
  let subs : (string, Lo_transport.handler) Hashtbl.t = Hashtbl.create 4 in
  let restart_handler = ref (fun () -> ()) in
  let local : (string * string) Queue.t = Queue.create () in
  let last_activity = ref 0. in

  (* A fan-out shares one lazy encoding across its remote destinations:
     the first pays the encode, the rest reuse the string. *)
  let send_many ~dsts ~tag payload =
    let frame = lazy (Frame.encode ~src:id ~tag payload) in
    let now = now_rel () in
    List.iter
      (fun dst ->
        if dst = id then begin
          emit
            (Lo_obs.Event.Send
               { src = id; dst = id; tag; bytes = String.length payload });
          Queue.add (tag, payload) local
        end
        else Link.send links.(dst) ~now ~tag ~payload frame)
      dsts
  in
  let transport =
    {
      Lo_transport.self = id;
      now = now_rel;
      send = (fun ~dst ~tag payload -> send_many ~dsts:[ dst ] ~tag payload);
      send_many;
      schedule = (fun ~delay fn -> after delay fn);
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
    match Resume.scan ~node:id cfg.resume_from with
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

  (* Every delivery, local or from the wire, lands here: one [Deliver]
     charge, then the subscriber of the tag's proto, else an
     [Unknown_tag]. The node subscribes "lo" when the loop starts it,
     so a protocol frame that arrives before then surfaces as unknown.
     A frame of another wire version is charged and surfaced, never
     handled. The reader is a view into a connection's decoder (or over
     a local payload) and dies with this call, well before the decoder
     is touched again. *)
  let deliver ~from ~tag ?(version = Frame.version) r =
    emit
      (Lo_obs.Event.Deliver
         { src = from; dst = id; tag; bytes = Lo_codec.Reader.remaining r });
    let unknown tag =
      emit (Lo_obs.Event.Unknown_tag { node = id; src = from; tag })
    in
    if version <> Frame.version then
      unknown (Printf.sprintf "v%d:%s" version tag)
    else
      match Hashtbl.find_opt subs (Lo_net.Mux.proto_of_tag tag) with
      | Some handler -> handler ~from ~tag r
      | None -> unknown tag
  in
  let handle_view { Frame.Decoder.v_version; v_src; v_tag; v_payload } =
    last_activity := now_rel ();
    deliver ~from:v_src ~tag:v_tag ~version:v_version v_payload
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
            emit (Lo_obs.Event.Submit { node = id; id = Tx.short_id tx });
            Node.submit_tx node tx)
      end)
    (Deployment.workload ~rate:cfg.tps ~duration ~seed ~n);

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
  let decoders : (Unix.file_descr, Frame.Decoder.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let incoming = ref [] in
  let drop_incoming fd =
    close_quietly fd;
    Hashtbl.remove decoders fd;
    incoming := List.filter (fun f -> f != fd) !incoming
  in
  let rec accept_all () =
    match Retry.accept listener with
    | c, _ ->
        (try Unix.setsockopt c Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        Hashtbl.replace decoders c (Frame.Decoder.create ());
        incoming := c :: !incoming;
        accept_all ()
    | exception Unix.Unix_error _ -> ()
  in
  let rec decode_all dec =
    match Frame.Decoder.next_view dec with
    | Some v ->
        handle_view v;
        decode_all dec
    | None -> ()
  in
  (* Set once the loop first observes relative time >= 0 and starts the
     node's protocol. *)
  let started = ref false in
  let running = ref true in
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
      && Queue.is_empty local
      && Array.for_all Link.idle links
    then running := false
    else begin
      (* Quiesce at [duration]: frozen timers stop new rounds, retries
         and submissions; the cascade of in-flight replies drains. *)
      if now < duration then ignore (Timer_wheel.run_due timers ~now);
      while not (Queue.is_empty local) do
        let tag, payload = Queue.pop local in
        last_activity := now_rel ();
        deliver ~from:id ~tag (Lo_codec.Reader.of_string payload)
      done;
      (* Link upkeep: abandon stuck connects, tear down half-open
         connections, start reconnects whose backoff clock expired. *)
      Array.iteri
        (fun peer l ->
          if peer <> id && Link.upkeep l ~now then start_connect peer l)
        links;
      wal_flush ();
      let fds pick =
        Array.fold_left
          (fun acc l -> match pick l with Some fd -> fd :: acc | None -> acc)
          [] links
      in
      let reads = (listener :: !incoming) @ fds Link.read_fd in
      let timeout =
        let cap = 0.05 in
        if now >= duration then cap
        else
          match Timer_wheel.next_due timers with
          | Some t -> Float.max 0.001 (Float.min cap (t -. now_rel ()))
          | None -> cap
      in
      let readable, writable, _ =
        Retry.select reads (fds Link.write_fd) [] timeout
      in
      (* Writes first: everything written here was charged in a
         previous iteration and is already durable. *)
      List.iter
        (fun fd ->
          match Hashtbl.find_opt outgoing fd with
          | None -> ()
          | Some l ->
              (match Link.state l with
              | Link.Connecting fd -> (
                  (* Established or failed: SO_ERROR tells which. *)
                  match Unix.getsockopt_error fd with
                  | None -> Link.established l ~now:(now_rel ())
                  | Some _ -> Link.down l ~now:(now_rel ()) ~reason:"refused")
              | Link.Down | Link.Up _ -> ());
              if Link.flush l ~now:(now_rel ()) > 0 then
                last_activity := now_rel ())
        writable;
      List.iter
        (fun fd ->
          if fd == listener then accept_all ()
          else
            match Hashtbl.find_opt decoders fd with
            | Some dec -> (
                match Retry.read fd read_buf 0 (Bytes.length read_buf) with
                | 0 -> drop_incoming fd
                | k -> (
                    Frame.Decoder.feed_bytes dec read_buf 0 k;
                    try decode_all dec
                    with Lo_codec.Reader.Malformed _ ->
                      (* The stream position is lost: count the discard,
                         then close the connection. *)
                      emit
                        (Lo_obs.Event.Malformed
                           { node = id; src = -1; tag = "frame" });
                      drop_incoming fd)
                | exception
                    Unix.Unix_error
                      ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
                    drop_incoming fd)
            | None -> (
                (* Readability on an outgoing connection: the peer never
                   sends data on it, so this is either EOF (peer died or
                   cut us — half-open detection) or junk to discard. *)
                match Hashtbl.find_opt outgoing fd with
                | Some l when Link.read_fd l = Some fd -> (
                    match Retry.read fd read_buf 0 1024 with
                    | 0 -> Link.down l ~now:(now_rel ()) ~reason:"eof"
                    | _
                    | (exception
                        Unix.Unix_error
                          ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)) ->
                        ()
                    | exception Unix.Unix_error _ ->
                        Link.down l ~now:(now_rel ()) ~reason:"reset")
                | _ -> ()))
        readable
    end
  done;

  (* --- shutdown --- *)
  Array.iter Link.shutdown links;
  List.iter close_quietly !incoming;
  close_quietly listener;
  wal_flush ();
  (match wal_oc with Some oc -> close_out oc | None -> ());
  trace
