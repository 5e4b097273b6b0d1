(* The live transport backend: length-prefixed framing over real
   sockets (partial reads, short writes), the timer wheel, and the
   mux's unknown-tag accounting. *)

module Frame = Lo_live.Frame
module Timer_wheel = Lo_live.Timer_wheel
module Signer = Lo_crypto.Signer
open Lo_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let scheme = Signer.simulation ()
let alice = Signer.make scheme ~seed:"live-alice"
let bob = Signer.make scheme ~seed:"live-bob"

let mk_tx payload = Tx.create ~signer:alice ~fee:7 ~created_at:1.5 ~payload

let occurrences needle s =
  let n = String.length needle and m = String.length s in
  let count = ref 0 in
  for i = 0 to m - n do
    if String.sub s i n = needle then incr count
  done;
  !count

(* One instance of every wire constructor — the whole live protocol
   surface. If a constructor is added, the length check below fails and
   this list must grow with it. *)
let all_messages () =
  let log = Commitment.Log.create ~signer:alice () in
  let d0 = Commitment.Log.current_digest log in
  ignore (Commitment.Log.append log ~source:None ~ids:[ 11; 22 ]);
  let d1 = Commitment.Log.current_digest log in
  let light = Commitment.Log.current_digest_light log in
  let tx = mk_tx "pay carol 5" in
  let tx2 = mk_tx "swap 1 eth" in
  let block =
    Block.create ~signer:alice ~height:1 ~prev_hash:Block.genesis_hash
      ~start_seq:0 ~commit_seq:1 ~fee_threshold:0
      ~txids:[ tx.Tx.id ]
      ~bundle_sizes:[ 1 ] ~appendix:0 ~omissions:[] ~timestamp:5.0
  in
  [
    Messages.Submit tx;
    Messages.Submit_ack
      {
        txid = tx.Tx.id;
        ack_signature = String.make Signer.signature_size 's';
      };
    Messages.Commit_request
      { digest = d1; delta = [ 1; 2 ]; want = [ 3 ]; appended = [ 11; 22 ] };
    Messages.Commit_response
      { digest = d1; want = []; delta = [ 9 ]; appended = [] };
    Messages.Tx_batch [ tx; tx2 ];
    Messages.Digest_share light;
    Messages.Digest_request { owner = Signer.id alice; seq = 1 };
    Messages.Digest_reply [ d0; d1 ];
    Messages.Suspicion_note
      {
        suspect = Signer.id alice;
        reporter = Signer.id bob;
        last_digest = Some light;
        reason = "timeout";
      };
    Messages.Suspicion_withdraw
      { suspect = Signer.id alice; reporter = Signer.id bob };
    Messages.Exposure_note
      (Evidence.Conflicting_digests { older = d0; newer = d1 });
    Messages.Block_announce block;
  ]

(* Deliberately tiny writes: every frame crosses the socket in many
   pieces, exercising the receiver's reassembly. *)
let write_chunked fd s chunk =
  let n = String.length s in
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < n do
    let len = min chunk (n - !off) in
    let w = Unix.write fd b !off len in
    off := !off + w
  done

let feed dec s =
  Frame.Decoder.feed_bytes dec (Bytes.of_string s) 0 (String.length s)

(* A view copied out into the reference parser's frame record. *)
let materialize (v : Frame.Decoder.view) =
  {
    Frame_ref.version = v.v_version;
    src = v.v_src;
    tag = v.v_tag;
    payload =
      Lo_codec.Reader.fixed v.v_payload (Lo_codec.Reader.remaining v.v_payload);
  }

let next dec = Option.map materialize (Frame.Decoder.next_view dec)

let drain_frames dec acc =
  let rec go acc = match next dec with Some f -> go (f :: acc) | None -> acc in
  go acc

(* Read until [expected] frames decoded; also returns the bytes read. *)
let read_frames fd ~expected =
  let dec = Frame.Decoder.create () in
  (* A 7-byte read buffer guarantees partial reads of both the length
     prefix and the body. *)
  let buf = Bytes.create 7 in
  let frames = ref [] and total = ref 0 in
  while List.length !frames < expected do
    let k = Unix.read fd buf 0 (Bytes.length buf) in
    if k = 0 then failwith "peer closed early";
    total := !total + k;
    Frame.Decoder.feed_bytes dec buf 0 k;
    frames := drain_frames dec !frames
  done;
  (List.rev !frames, !total)

let frame_tests =
  [
    Alcotest.test_case "all 12 wire constructors round-trip over a socket pair"
      `Quick (fun () ->
        let msgs = all_messages () in
        check_int "protocol surface" 12 (List.length msgs);
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (* Write/read per frame: a single-threaded test must not fill
           the socket buffer (tiny writes charge a whole skb each). *)
        let frames =
          List.concat_map
            (fun m ->
              let whole =
                Frame.encode ~src:3 ~tag:(Messages.tag m) (Messages.encode m)
              in
              write_chunked a whole 64;
              let frames, read = read_frames b ~expected:1 in
              check_int "no trailing garbage" (String.length whole) read;
              frames)
            msgs
        in
        Unix.close a;
        Unix.close b;
        List.iter2
          (fun m (f : Frame_ref.frame) ->
            check_int "version" Frame.version f.version;
            check_int "src" 3 f.src;
            check_string "tag" (Messages.tag m) f.tag;
            let decoded = Messages.decode f.payload in
            check_string "payload round-trip" (Messages.encode m)
              (Messages.encode decoded))
          msgs frames);
    Alcotest.test_case "decoder survives byte-at-a-time feeds" `Quick
      (fun () ->
        let msgs = all_messages () in
        let stream =
          String.concat ""
            (List.map
               (fun m ->
                 Frame.encode ~src:0 ~tag:(Messages.tag m) (Messages.encode m))
               msgs)
        in
        let dec = Frame.Decoder.create () in
        let got = ref 0 in
        String.iter
          (fun c ->
            feed dec (String.make 1 c);
            got := !got + List.length (drain_frames dec []))
          stream;
        check_int "frames" (List.length msgs) !got;
        (* And the other extreme: the whole stream in one feed. *)
        let dec = Frame.Decoder.create () in
        feed dec stream;
        check_int "batched" (List.length msgs)
          (List.length (drain_frames dec [])));
    Alcotest.test_case "incomplete frame stays pending" `Quick (fun () ->
        let full = Frame.encode ~src:1 ~tag:"lo:txs" "payload" in
        let dec = Frame.Decoder.create () in
        feed dec (String.sub full 0 (String.length full - 1));
        check_bool "not ready" true (next dec = None);
        feed dec (String.sub full (String.length full - 1) 1);
        match next dec with
        | Some f -> check_string "tag" "lo:txs" f.tag
        | None -> Alcotest.fail "frame should complete");
    Alcotest.test_case "oversized frame is malformed, not allocated" `Quick
      (fun () ->
        let w = Lo_codec.Writer.create ~initial_size:4 () in
        Lo_codec.Writer.u32 w (Frame.max_body + 1);
        let dec = Frame.Decoder.create () in
        feed dec (Lo_codec.Writer.contents w);
        check_bool "raises" true
          (match Frame.Decoder.next_view dec with
          | exception Lo_codec.Reader.Malformed _ -> true
          | _ -> false));
    Alcotest.test_case "frame carries the version byte" `Quick (fun () ->
        let whole = Frame.encode ~src:5 ~tag:"lo:block" "body" in
        check_int "first body byte" Frame.version (Char.code whole.[4]);
        let dec = Frame.Decoder.create () in
        feed dec whole;
        match next dec with
        | Some f ->
            check_int "version" Frame.version f.version;
            check_int "src" 5 f.src;
            check_string "tag" "lo:block" f.tag;
            check_string "payload" "body" f.payload;
            check_bool "reference agrees" true (Frame_ref.parse whole = [ f ])
        | None -> Alcotest.fail "frame should decode");
  ]

let timer_tests =
  [
    Alcotest.test_case "due timers run in deadline then insertion order"
      `Quick (fun () ->
        let tw = Timer_wheel.create () in
        let order = ref [] in
        let note k () = order := k :: !order in
        Timer_wheel.schedule tw ~at:2.0 (note "b1");
        Timer_wheel.schedule tw ~at:1.0 (note "a");
        Timer_wheel.schedule tw ~at:2.0 (note "b2");
        Timer_wheel.schedule tw ~at:9.0 (note "late");
        check_int "ran" 3 (Timer_wheel.run_due tw ~now:2.0);
        check_bool "order" true (List.rev !order = [ "a"; "b1"; "b2" ]);
        check_int "left" 1 (Timer_wheel.pending tw);
        check_bool "next" true (Timer_wheel.next_due tw = Some 9.0));
    Alcotest.test_case "callbacks may schedule further due timers" `Quick
      (fun () ->
        let tw = Timer_wheel.create () in
        let hits = ref 0 in
        Timer_wheel.schedule tw ~at:1.0 (fun () ->
            incr hits;
            Timer_wheel.schedule tw ~at:1.5 (fun () -> incr hits));
        check_int "both ran" 2 (Timer_wheel.run_due tw ~now:2.0);
        check_int "hits" 2 !hits);
  ]

let mux_tests =
  [
    Alcotest.test_case "unknown tags are counted and traced, not dropped"
      `Quick (fun () ->
        let net = Lo_net.Network.create ~num_nodes:2 ~seed:7 () in
        let trace = Lo_obs.Trace.create () in
        Lo_net.Network.set_trace net (Some trace);
        let mux = Lo_net.Mux.create net in
        let seen = ref 0 in
        Lo_net.Mux.register mux 1 ~proto:"lo"
          (fun _net ~from:_ ~tag:_ _payload -> incr seen);
        Lo_net.Network.send net ~src:0 ~dst:1 ~tag:"lo:txs" "known";
        Lo_net.Network.send net ~src:0 ~dst:1 ~tag:"zz:ping" "stray";
        Lo_net.Network.send net ~src:0 ~dst:1 ~tag:"zz:ping" "stray2";
        Lo_net.Network.run_until net 5.0;
        check_int "handled" 1 !seen;
        check_int "unknown" 2 (Lo_obs.Trace.count trace "unknown_tag");
        check_bool "by tag" true
          (List.for_all
             (fun (e : Lo_obs.Trace.entry) ->
               match e.ev with
               | Lo_obs.Event.Unknown_tag { node; src; tag } ->
                   node = 1 && src = 0 && tag = "zz:ping"
               | _ -> true)
             (Lo_obs.Trace.events trace));
        let dump = Lo_obs.Jsonl.to_string trace in
        check_int "traced" 2 (occurrences "\"ev\":\"unknown_tag\"" dump));
  ]

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

module Reconnect = Lo_live.Reconnect
module Faulty_link = Lo_live.Faulty_link
module Resume = Lo_live.Resume
module Rng = Lo_net.Rng

let reconnect_tests =
  let p = Reconnect.default_policy in
  [
    Alcotest.test_case "delay is bounded and grows to the cap" `Quick
      (fun () ->
        let rng = Rng.create 42 in
        for attempts = 0 to 12 do
          for _rep = 1 to 50 do
            let d = Reconnect.delay p ~rng ~attempts in
            let raw =
              Float.min p.Reconnect.cap
                (p.Reconnect.base
                *. (p.Reconnect.factor ** float_of_int attempts))
            in
            check_bool "positive" true (d > 0.);
            check_bool "within jitter band" true
              (d >= raw *. (1. -. p.Reconnect.jitter) -. 1e-9
              && d <= raw *. (1. +. p.Reconnect.jitter) +. 1e-9)
          done
        done;
        (* Deep in the schedule the un-jittered delay must sit at the
           cap: a long-dead peer costs a bounded probe rate. *)
        let rng = Rng.create 7 in
        let d = Reconnect.delay p ~rng ~attempts:40 in
        check_bool "capped" true (d <= p.Reconnect.cap *. (1. +. p.Reconnect.jitter)));
    Alcotest.test_case "same rng seed, same schedule" `Quick (fun () ->
        let run seed =
          let rng = Rng.create seed in
          List.init 20 (fun attempts -> Reconnect.delay p ~rng ~attempts)
        in
        check_bool "deterministic" true (run 99 = run 99);
        check_bool "seed-sensitive" true (run 99 <> run 100));
    Alcotest.test_case "state machine: free first connect, armed retries"
      `Quick (fun () ->
        let rng = Rng.create 5 in
        let r = Reconnect.create ~rng () in
        check_bool "first connect is free" true (Reconnect.ready r ~now:0.);
        Reconnect.failed r ~now:0.;
        check_int "one failure" 1 (Reconnect.attempts r);
        check_bool "not ready immediately" false (Reconnect.ready r ~now:0.);
        let at1 = Reconnect.next_at r in
        check_bool "armed in the future" true (at1 > 0.);
        check_bool "ready at the deadline" true (Reconnect.ready r ~now:at1);
        Reconnect.failed r ~now:at1;
        Reconnect.failed r ~now:(Reconnect.next_at r);
        check_int "failures accumulate" 3 (Reconnect.attempts r);
        Reconnect.opened r;
        check_int "opened resets" 0 (Reconnect.attempts r);
        check_bool "ready again" true (Reconnect.ready r ~now:at1);
        Reconnect.lost r ~now:10.;
        (* A drop of an established connection re-arms at the base
           delay: probe soon, but never busy-loop. *)
        check_bool "lost arms a pause" false (Reconnect.ready r ~now:10.);
        check_bool "lost pause is short" true
          (Reconnect.next_at r -. 10.
          <= p.Reconnect.base *. (1. +. p.Reconnect.jitter) +. 1e-9));
  ]

let faulty_link_tests =
  [
    Alcotest.test_case "none passes everything" `Quick (fun () ->
        let rng = Rng.create 1 in
        for len = 0 to 100 do
          check_bool "pass" true
            (Faulty_link.decide Faulty_link.none rng ~frame_len:len
            = Faulty_link.Pass)
        done);
    Alcotest.test_case "rates act and parameters stay in range" `Quick
      (fun () ->
        let spec =
          {
            Faulty_link.drop = 0.2;
            dup = 0.2;
            delay = 0.2;
            delay_max = 0.05;
            truncate = 0.2;
            garble = 0.2;
          }
        in
        Faulty_link.validate spec;
        let rng = Rng.create 77 in
        let counts = Hashtbl.create 8 in
        let bump k =
          Hashtbl.replace counts k
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
        in
        for _ = 1 to 5_000 do
          (match Faulty_link.decide spec rng ~frame_len:64 with
          | Faulty_link.Pass -> bump "pass"
          | Faulty_link.Drop -> bump "drop"
          | Faulty_link.Duplicate -> bump "dup"
          | Faulty_link.Delay d ->
              check_bool "delay in (0, delay_max]" true
                (d > 0. && d <= spec.Faulty_link.delay_max);
              bump "delay"
          | Faulty_link.Truncate k ->
              check_bool "proper prefix" true (k >= 1 && k < 64);
              bump "trunc"
          | Faulty_link.Garble -> bump "garble")
        done;
        List.iter
          (fun k ->
            let c = Option.value ~default:0 (Hashtbl.find_opt counts k) in
            (* Each branch has rate 0.2 over 5000 draws; 600 is > 8
               sigma below the mean — only a broken threshold stack
               fails this. *)
            check_bool (k ^ " frequency sane") true (c > 600))
          [ "drop"; "dup"; "delay"; "trunc"; "garble" ]);
    Alcotest.test_case "tiny frames never truncate" `Quick (fun () ->
        let spec =
          {
            Faulty_link.drop = 0.;
            dup = 0.;
            delay = 0.;
            delay_max = 1.;
            truncate = 1.0;
            garble = 0.;
          }
        in
        let rng = Rng.create 3 in
        check_bool "len 1 passes" true
          (Faulty_link.decide spec rng ~frame_len:1 = Faulty_link.Pass);
        check_bool "len 2 truncates" true
          (match Faulty_link.decide spec rng ~frame_len:2 with
          | Faulty_link.Truncate 1 -> true
          | _ -> false));
    Alcotest.test_case "same seed, same decision stream" `Quick (fun () ->
        let spec =
          { Faulty_link.none with drop = 0.1; dup = 0.1; garble = 0.1 }
        in
        let run seed =
          let rng = Rng.create seed in
          List.init 200 (fun i ->
              Faulty_link.decide spec rng ~frame_len:(8 + i))
        in
        check_bool "deterministic" true (run 11 = run 11);
        check_bool "seed-sensitive" true (run 11 <> run 12));
    Alcotest.test_case "validate rejects nonsense specs" `Quick (fun () ->
        let bad spec =
          match Faulty_link.validate spec with
          | exception Invalid_argument _ -> true
          | () -> false
        in
        check_bool "negative rate" true
          (bad { Faulty_link.none with drop = -0.1 });
        check_bool "sum above one" true
          (bad { Faulty_link.none with drop = 0.6; dup = 0.6 });
        check_bool "delay without bound" true
          (bad { Faulty_link.none with delay = 0.1; delay_max = 0. });
        check_bool "default chaos link is valid" true
          (match
             Faulty_link.validate Lo_live.Cluster.default_chaos.Lo_live.Cluster.link
           with
          | () -> true
          | exception _ -> false));
  ]

(* ---------------- Link: the per-peer state machine ---------------- *)

module Link = Lo_live.Link

(* One link over a model socket: integer fds, a synthetic clock (every
   call passes [now]), a kernel that takes at most [budget] more bytes
   (then would block), and the peer's decoder, which a released
   connection resets — the peer discards a partial tail at EOF. *)
type model = {
  link : int Link.t;
  events : Lo_obs.Event.t list ref;  (** newest first *)
  budget : int ref;
  fail : string option ref;  (** the next write fails so *)
  writes : (bool * int) list ref;  (** (gathered in scratch?, len) *)
  received : (string, int) Hashtbl.t;  (** complete frames, by tag *)
  deferred : (unit -> unit) Queue.t;
  released : int list ref;
  next_fd : int ref;
  at : float ref;  (** synthetic time of the last connect or timed send *)
}

let model ?(faults = Faulty_link.none) ?(seed = 1) ?(scratch = 65536) () =
  let events = ref [] and writes = ref [] and released = ref [] in
  let budget = ref max_int and fail = ref None in
  let received = Hashtbl.create 4 and deferred = Queue.create () in
  let dec = ref (Frame.Decoder.create ()) in
  let scratch = Bytes.create scratch in
  let write _fd buf off len =
    writes := (buf == scratch, len) :: !writes;
    match !fail with
    | Some reason ->
        fail := None;
        Link.Failed reason
    | None ->
        let k = min len !budget in
        if k = 0 then Link.Again
        else begin
          budget := !budget - k;
          Frame.Decoder.feed_bytes !dec buf off k;
          let rec decode () =
            match Frame.Decoder.next_view !dec with
            | Some { v_tag = tag; _ } ->
                Hashtbl.replace received tag
                  (1 + Option.value ~default:0 (Hashtbl.find_opt received tag));
                decode ()
            | None -> ()
          in
          decode ();
          Link.Wrote k
        end
  in
  let env =
    {
      Link.self = 0;
      emit = (fun e -> events := e :: !events);
      rng = Rng.create seed;
      faults;
      defer = (fun _ fn -> Queue.add fn deferred);
      write;
      release =
        (fun fd ->
          released := fd :: !released;
          dec := Frame.Decoder.create ());
      scratch;
    }
  in
  {
    link = Link.create env ~peer:1;
    events;
    budget;
    fail;
    writes;
    received;
    deferred;
    released;
    next_fd = ref 10;
    at = ref 0.;
  }

let connect m ~now =
  incr m.next_fd;
  m.at := now;
  Link.connecting m.link ~now !(m.next_fd);
  Link.established m.link ~now

(* A send happens at [now] if given, else at the model's last time. *)
let send m ?(tag = "lo:txs") ?now size =
  Option.iter (fun t -> m.at := t) now;
  let payload = String.make size 'p' in
  Link.send m.link ~now:!(m.at) ~tag ~payload
    (lazy (Frame.encode ~src:0 ~tag payload))

(* Raw queue entries of an exact wire size (only their length matters
   while the link is down). *)
let send_raw m ~tag ~pbytes len =
  Link.send m.link ~now:!(m.at) ~tag ~payload:(String.make pbytes 'p')
    (lazy (String.make len 'w'))

let drops ?tag m reason =
  List.length
    (List.filter
       (function
         | Lo_obs.Event.Drop d ->
             d.reason = reason
             && Option.fold ~none:true ~some:(String.equal d.tag) tag
         | _ -> false)
       !(m.events))

let sends ?tag m =
  List.length
    (List.filter
       (function
         | Lo_obs.Event.Send d ->
             Option.fold ~none:true ~some:(String.equal d.tag) tag
         | _ -> false)
       !(m.events))

let conn_ups m =
  List.length
    (List.filter (function Lo_obs.Event.Conn_up _ -> true | _ -> false) !(m.events))

let conn_downs m =
  List.filter_map
    (function Lo_obs.Event.Conn_down d -> Some d.reason | _ -> None)
    (List.rev !(m.events))

let all_drops m =
  List.length
    (List.filter (function Lo_obs.Event.Drop _ -> true | _ -> false) !(m.events))

let frames_received m =
  Hashtbl.fold (fun _ c acc -> acc + c) m.received 0

let is_down m = Link.state m.link = Link.Down

let truncating = { Faulty_link.none with truncate = 1.0 }

let link_tests =
  let module Ev = Lo_obs.Event in
  [
    Alcotest.test_case "a tail drop at exactly 256 KiB charges one Overflow"
      `Quick (fun () ->
        let m = model () in
        let quarter = Link.max_queue_bytes / 4 in
        check_int "256 KiB" (1 lsl 18) Link.max_queue_bytes;
        for _ = 1 to 4 do
          send_raw m ~tag:"lo:txs" ~pbytes:100 quarter
        done;
        check_int "a full queue is not a drop" 0 (all_drops m);
        send_raw m ~tag:"lo:digest" ~pbytes:7 1;
        check_int "four sends, then the refused one" 5 (sends m);
        check_int "one overflow" 1 (drops m Ev.Overflow);
        check_bool "charged to the refused frame" true
          (match !(m.events) with
          | Ev.Drop { tag = "lo:digest"; bytes = 7; dst = 1; src = 0; _ } :: _ ->
              true
          | _ -> false);
        check_int "not a dead link" 0 (drops m Ev.Down));
    Alcotest.test_case
      "a partial write then teardown charges the head frame once, as Down"
      `Quick (fun () ->
        let m = model () in
        connect m ~now:0.;
        send m 100;
        send m 50;
        m.budget := 10;
        check_int "nothing complete" 0 (Link.flush m.link ~now:0.1);
        Link.down m.link ~now:0.2 ~reason:"reset";
        check_int "head charged as down" 1 (drops m Ev.Down);
        check_bool "conn down" true (conn_downs m = [ "reset" ]);
        check_bool "fd released" true (!(m.released) = [ 11 ]);
        (* The second frame survives the teardown whole and goes out on
           the next connection; nothing is charged again. *)
        m.budget := max_int;
        connect m ~now:1.;
        check_int "second frame written" 1 (Link.flush m.link ~now:1.);
        check_int "peer decoded it alone" 1 (frames_received m);
        Link.shutdown m.link;
        check_int "still one drop" 1 (all_drops m);
        check_int "frames out" 1 (frames_received m);
        check_int "two connections" 2 (conn_ups m));
    Alcotest.test_case
      "Truncate: one Send, one Loss, down at its Cut, no second charge"
      `Quick (fun () ->
        let m = model ~faults:truncating () in
        connect m ~now:0.;
        send m 100;
        check_int "one send" 1 (sends m);
        check_int "one loss" 1 (drops m Ev.Loss);
        ignore (Link.flush m.link ~now:0.1);
        check_bool "down at the cut" true (conn_downs m = [ "cut" ] && is_down m);
        check_int "peer got no frame" 0 (frames_received m);
        (* A prefix cut short by a teardown charges nothing either, and
           its Cut still closes the next connection. *)
        send m 100;
        connect m ~now:1.;
        m.budget := 3;
        ignore (Link.flush m.link ~now:1.);
        Link.down m.link ~now:1.1 ~reason:"reset";
        m.budget := max_int;
        connect m ~now:2.;
        ignore (Link.flush m.link ~now:2.);
        check_bool "reset, then cut" true
          (conn_downs m = [ "cut"; "reset"; "cut" ]);
        Link.shutdown m.link;
        check_int "two sends" 2 (sends m);
        check_int "two losses" 2 (drops m Ev.Loss);
        check_int "no other drop" 2 (all_drops m);
        check_int "no frame out" 0 (frames_received m));
    Alcotest.test_case "shutdown charges partly written as Down, untouched as In_flight"
      `Quick (fun () ->
        let m = model () in
        connect m ~now:0.;
        send m ~tag:"lo:a" 100;
        send m ~tag:"lo:b" 100;
        send m ~tag:"lo:b" 100;
        m.budget := 20;
        ignore (Link.flush m.link ~now:0.1);
        Link.shutdown m.link;
        check_int "head down" 1 (drops ~tag:"lo:a" m Ev.Down);
        check_int "rest in flight" 2 (drops ~tag:"lo:b" m Ev.In_flight);
        check_int "nothing else" 3 (all_drops m);
        check_bool "no conn down" true (conn_downs m = []);
        check_bool "released" true (!(m.released) = [ 11 ] && is_down m));
    Alcotest.test_case
      "a lone frame is written in place; a gathered write stops at a Cut"
      `Quick (fun () ->
        let spec = { Faulty_link.none with truncate = 0.5 } in
        let len = String.length (Frame.encode ~src:0 ~tag:"lo:txs" (String.make 60 'p')) in
        (* A seed whose first four decisions are pass, pass, truncate,
           pass: the queue becomes A B prefix Cut C. *)
        let pattern seed =
          let rng = Rng.create seed in
          match List.init 4 (fun _ -> Faulty_link.decide spec rng ~frame_len:len) with
          | [ Faulty_link.Pass; Faulty_link.Pass; Faulty_link.Truncate k; Faulty_link.Pass ] ->
              Some k
          | _ -> None
        in
        let seed = Option.get (Seq.find (fun s -> pattern s <> None) (Seq.ints 1)) in
        let keep = Option.get (pattern seed) in
        let m = model ~faults:spec ~seed () in
        for _ = 1 to 4 do
          send m 60
        done;
        connect m ~now:0.;
        check_int "A, B and the prefix complete" 3 (Link.flush m.link ~now:0.);
        check_bool "one gathered write, up to the cut" true
          (!(m.writes) = [ (true, (2 * len) + keep) ]);
        check_bool "then down at the cut" true (conn_downs m = [ "cut" ]);
        check_int "peer decoded A and B" 2 (frames_received m);
        connect m ~now:1.;
        m.writes := [];
        check_int "C complete" 1 (Link.flush m.link ~now:1.);
        check_bool "C alone, in place" true (!(m.writes) = [ (false, len) ]);
        (* A head frame that fills the scratch buffer goes in place even
           with company. *)
        let m = model ~scratch:64 () in
        connect m ~now:0.;
        send m 100;
        send m 10;
        m.budget := 0;
        ignore (Link.flush m.link ~now:0.);
        check_bool "big head in place" true
          (match !(m.writes) with [ (false, _) ] -> true | _ -> false));
    Alcotest.test_case "deadlines: connect timeout, stall, backoff" `Quick
      (fun () ->
        let m = model () in
        check_bool "first connect is due" true (Link.upkeep m.link ~now:0.);
        Link.connecting m.link ~now:0. 11;
        check_bool "in flight" false (Link.upkeep m.link ~now:0.9);
        check_bool "connect abandoned, backoff armed" false
          (Link.upkeep m.link ~now:1.1);
        check_bool "released" true (is_down m && !(m.released) = [ 11 ]);
        check_bool "no conn down before up" true (conn_downs m = []);
        check_bool "retry after the backoff" true (Link.upkeep m.link ~now:3.);
        connect m ~now:3.;
        send m 10;
        m.budget := 0;
        ignore (Link.flush m.link ~now:3.);
        check_bool "queued but not yet stalled" false (Link.upkeep m.link ~now:6.9);
        ignore (Link.upkeep m.link ~now:7.1);
        check_bool "stalled" true (conn_downs m = [ "stalled" ]));
    Alcotest.test_case "idle time before a send is not a stall" `Quick
      (fun () ->
        let m = model () in
        connect m ~now:0.;
        m.budget := 0;
        send m ~now:10. 10;
        ignore (Link.flush m.link ~now:10.);
        check_bool "not torn down at once" false (Link.upkeep m.link ~now:10.1);
        check_bool "no conn down" true (conn_downs m = []);
        ignore (Link.upkeep m.link ~now:14.2);
        check_bool "stalled 4 s after the send" true
          (conn_downs m = [ "stalled" ]));
  ]

(* Conservation under any interleaving: per tag, the frames charged as
   sent equal the frames the peer decoded plus the drops. *)
type link_op =
  | Op_send of int * int  (** tag index, payload bytes *)
  | Op_connect
  | Op_flush of int  (** kernel budget *)
  | Op_teardown
  | Op_fail_next
  | Op_fire_delays

let link_op_gen =
  let open QCheck2.Gen in
  frequency
    [
      ( 6,
        map2
          (fun t size -> Op_send (t, size))
          (int_bound 1)
          (frequency [ (3, int_bound 400); (1, int_range 30_000 70_000) ]) );
      (2, return Op_connect);
      (4, map (fun b -> Op_flush b) (int_bound 2_000));
      (1, return Op_teardown);
      (1, return Op_fail_next);
      (1, return Op_fire_delays);
    ]

let link_qcheck =
  let chaos =
    {
      Faulty_link.drop = 0.1;
      dup = 0.1;
      delay = 0.1;
      delay_max = 0.05;
      truncate = 0.1;
      garble = 0.1;
    }
  in
  qtest ~count:200 "sends = frames written in full + drops, per tag"
    QCheck2.Gen.(pair (int_bound 1_000_000) (list_size (int_bound 80) link_op_gen))
    (fun (seed, ops) ->
      let m = model ~faults:chaos ~seed () in
      let now = ref 0. in
      List.iter
        (fun op ->
          now := !now +. 0.01;
          match op with
          | Op_send (t, size) ->
              send m ~tag:(if t = 0 then "lo:a" else "lo:b") ~now:!now size
          | Op_connect -> if is_down m then connect m ~now:!now
          | Op_flush b ->
              m.budget := b;
              ignore (Link.flush m.link ~now:!now)
          | Op_teardown -> Link.down m.link ~now:!now ~reason:"reset"
          | Op_fail_next -> m.fail := Some "eof"
          | Op_fire_delays ->
              let fns = List.of_seq (Queue.to_seq m.deferred) in
              Queue.clear m.deferred;
              List.iter (fun fn -> fn ()) fns)
        ops;
      Link.shutdown m.link;
      let dropped tag =
        List.length
          (List.filter
             (function Lo_obs.Event.Drop d -> d.tag = tag | _ -> false)
             !(m.events))
      in
      let got tag = Option.value ~default:0 (Hashtbl.find_opt m.received tag) in
      List.for_all
        (fun tag -> sends ~tag m = got tag + dropped tag)
        [ "lo:a"; "lo:b"; Faulty_link.garble_tag ])

(* The decoder faces the open network (and the chaos wrapper's
   truncations), so its contract is: any byte stream either yields
   frames, stays pending, or raises [Reader.Malformed] — never any
   other exception. *)
let decoder_fuzz_tests =
  let feed_chunked dec s chunk_sizes =
    let n = String.length s in
    let off = ref 0 in
    let sizes = ref chunk_sizes in
    let frames = ref 0 in
    let outcome = ref `Clean in
    while !off < n && !outcome = `Clean do
      let k =
        match !sizes with
        | [] -> n - !off
        | s :: rest ->
            sizes := rest;
            min (max 1 s) (n - !off)
      in
      feed dec (String.sub s !off k);
      off := !off + k;
      match
        let rec drain () =
          match next dec with
          | Some _ ->
              incr frames;
              drain ()
          | None -> ()
        in
        drain ()
      with
      | () -> ()
      | exception Lo_codec.Reader.Malformed _ -> outcome := `Malformed
      | exception e -> outcome := `Other e
    done;
    (!outcome, !frames)
  in
  let gen =
    QCheck2.Gen.(
      pair
        (string_size ~gen:(char_range '\000' '\255') (int_range 0 400))
        (list_size (int_bound 20) (int_range 1 37)))
  in
  [
    qtest ~count:500 "adversarial bytes never escape Malformed" gen
      (fun (garbage, chunks) ->
        let dec = Frame.Decoder.create () in
        match feed_chunked dec garbage chunks with
        | `Other e, _ ->
            QCheck2.Test.fail_reportf "escaped exception: %s"
              (Printexc.to_string e)
        | (`Clean | `Malformed), _ -> true);
    qtest ~count:300 "truncated valid streams stay pending, then complete"
      QCheck2.Gen.(pair (int_range 0 11) (int_bound 1000))
      (fun (msg_idx, cut_salt) ->
        let msgs = all_messages () in
        let m = List.nth msgs (msg_idx mod List.length msgs) in
        let whole =
          Frame.encode ~src:1 ~tag:(Messages.tag m) (Messages.encode m)
        in
        let cut = 1 + (cut_salt mod (String.length whole - 1)) in
        let dec = Frame.Decoder.create () in
        feed dec (String.sub whole 0 cut);
        let pending =
          match next dec with
          | None -> true
          | Some _ -> false
          | exception Lo_codec.Reader.Malformed _ -> false
          | exception e ->
              QCheck2.Test.fail_reportf "escaped exception: %s"
                (Printexc.to_string e)
        in
        (* A prefix of a valid frame is never an error: the decoder
           must wait for the rest. *)
        if not pending then
          QCheck2.Test.fail_report "prefix rejected instead of pending";
        feed dec (String.sub whole cut (String.length whole - cut));
        match next dec with
        | Some f -> f.tag = Messages.tag m && next dec = None
        | None -> false);
  ]

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let resume_tests =
  let line at ev = Lo_obs.Jsonl.line { Lo_obs.Trace.at; ev } in
  [
    Alcotest.test_case "a kill-torn trailing line is tolerated, corruption is not"
      `Quick (fun () ->
        let dir = Filename.temp_file "lo-resume" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let good = line 1.0 (Lo_obs.Event.Crash { node = 0 }) in
        let p1 = Filename.concat dir "torn.jsonl" in
        Out_channel.with_open_text p1 (fun oc ->
            output_string oc (good ^ "\n");
            (* SIGKILL mid-append: an unterminated prefix of a line. *)
            output_string oc (String.sub good 0 (String.length good / 2)));
        (match Resume.parse_lenient ~path:p1 with
        | Ok (es, cut) ->
            check_int "events kept" 1 (List.length es);
            check_int "one torn line" 1 cut
        | Error m -> Alcotest.fail m);
        let p2 = Filename.concat dir "corrupt.jsonl" in
        write_lines p2 [ good; "{ not json"; good ];
        check_bool "mid-file corruption is an error" true
          (match Resume.parse_lenient ~path:p2 with
          | Error _ -> true
          | Ok _ -> false));
    Alcotest.test_case "scan rebuilds bundles, open spans and suspects"
      `Quick (fun () ->
        let dir = Filename.temp_file "lo-resume" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let p = Filename.concat dir "node-2.0.jsonl" in
        write_lines p
          [
            line 0.1
              (Lo_obs.Event.Commit_append
                 { node = 2; seq = 1; count = 2; ids = [ 4; 9 ] });
            line 0.2 (Lo_obs.Event.Span_begin { node = 2; key = "recon:5" });
            line 0.3 (Lo_obs.Event.Span_begin { node = 2; key = "recon:1" });
            line 0.35
              (Lo_obs.Event.Span_end { node = 2; key = "recon:1"; ok = true });
            line 0.4 (Lo_obs.Event.Suspect { node = 2; peer = 5 });
            line 0.45 (Lo_obs.Event.Suspect { node = 2; peer = 6 });
            line 0.5 (Lo_obs.Event.Clear { node = 2; peer = 6 });
            line 0.6
              (Lo_obs.Event.Commit_append
                 { node = 2; seq = 2; count = 3; ids = [ 13 ] });
            (* Another node's events must not leak into node 2's state. *)
            line 0.7 (Lo_obs.Event.Suspect { node = 3; peer = 2 });
          ];
        (match Resume.scan ~node:2 [ p ] with
        | Ok r ->
            check_bool "bundles" true
              (r.Resume.bundles = [ [ 4; 9 ]; [ 13 ] ]);
            check_int "last seq" 2 r.Resume.last_seq;
            check_bool "open spans" true (r.Resume.open_spans = [ "recon:5" ]);
            check_bool "suspects" true (r.Resume.suspects = [ 5 ])
        | Error m -> Alcotest.fail m);
        (* A gapped WAL must refuse to resume: re-appending over a lost
           bundle would re-sign history, i.e. equivocate. *)
        let pg = Filename.concat dir "gap.jsonl" in
        write_lines pg
          [
            line 0.1
              (Lo_obs.Event.Commit_append
                 { node = 2; seq = 1; count = 1; ids = [ 4 ] });
            line 0.2
              (Lo_obs.Event.Commit_append
                 { node = 2; seq = 3; count = 2; ids = [ 5 ] });
          ];
        check_bool "commit gap refused" true
          (match Resume.scan ~node:2 [ pg ] with
          | Error _ -> true
          | Ok _ -> false));
  ]

let host_tests =
  let config ~n base_port =
    Lo_live.Host.config ~id:0 ~n ~base_port ~epoch:0. ()
  in
  let rejects ~n base_port =
    match config ~n base_port with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  [
    Alcotest.test_case "config rejects ports outside 1..65535" `Quick
      (fun () ->
        check_bool "port 0" true (rejects ~n:1 0);
        check_bool "negative" true (rejects ~n:4 (-3));
        check_bool "last port past 65535" true (rejects ~n:2 65535);
        check_bool "60000 nodes from the default port" true
          (rejects ~n:60_000 Lo_live.Host.default_base_port);
        check_bool "port 1" false (rejects ~n:1 1);
        check_bool "port 65535" false (rejects ~n:1 65535);
        check_bool "every port" false (rejects ~n:65_535 1));
  ]

let merged_entries dir =
  match
    Lo_obs.Jsonl.parse
      (In_channel.with_open_bin (Filename.concat dir "merged.jsonl")
         In_channel.input_all)
  with
  | Ok es -> es
  | Error m -> Alcotest.fail ("merged.jsonl: " ^ m)

(* End-to-end chaos: real forks, real SIGKILLs, real sockets. Small
   clusters and short runs keep the suite fast; the audit over the
   merged per-incarnation stream is the actual assertion. *)
let cluster_tests =
  let tmp_dir tag =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "lo-test-%s-%d" tag (Unix.getpid ()))
    in
    if not (Sys.file_exists d) then Unix.mkdir d 0o755;
    d
  in
  (* A stranger process that writes [bytes] to the port as soon as it
     listens, then hangs up. *)
  let stranger ~port bytes =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        let rec attempt k =
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          match
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
          with
          | () ->
              ignore (Unix.write_substring fd bytes 0 (String.length bytes));
              Unix.close fd;
              0
          | exception Unix.Unix_error _ ->
              Unix.close fd;
              if k = 0 then 1
              else begin
                Unix.sleepf 0.05;
                attempt (k - 1)
              end
        in
        Unix._exit (attempt 100)
    | _ -> ()
  in
  [
    Alcotest.test_case "synthesized drops close a replayed kill deficit"
      `Quick (fun () ->
        (* The supervisor's merge: replay a stream in which a victim's
           queues died with it (two lo:txs frames and one lo:digest frame
           sent, none delivered or dropped) into an audited trace, then
           close the per-tag deficits. *)
        let module Ev = Lo_obs.Event in
        let trace = Lo_obs.Trace.create ~capacity:1 () in
        let audit = Lo_obs.Audit.attach trace in
        let send at tag bytes =
          Lo_obs.Trace.emit trace ~at
            (Ev.Send { src = 0; dst = 1; tag; bytes })
        in
        send 1.0 "lo:txs" 10;
        Lo_obs.Trace.emit trace ~at:1.5
          (Ev.Deliver { src = 0; dst = 1; tag = "lo:txs"; bytes = 10 });
        send 2.0 "lo:txs" 7;
        send 2.5 "lo:txs" 8;
        send 3.0 "lo:digest" 40;
        Lo_obs.Trace.emit trace ~at:3.0
          (Ev.Drop
             { src = 0; dst = 1; tag = "lo:digest"; bytes = 5;
               reason = Ev.Blocked });
        Lo_obs.Trace.emit trace ~at:4.0 (Ev.Crash { node = 1 });
        check_bool "deficit fails the audit" false
          (Lo_obs.Audit.ok (Lo_obs.Audit.finish audit));
        check_int "one drop per missing frame" 3
          (Lo_live.Cluster.close_deficits trace);
        let report = Lo_obs.Audit.finish audit in
        if not (Lo_obs.Audit.ok report) then
          Alcotest.fail (Lo_obs.Audit.summary report);
        check_int "drops audited" 10 report.Lo_obs.Audit.events_checked;
        check_int "nothing left to close" 0
          (Lo_live.Cluster.close_deficits trace));
    Alcotest.test_case "duplicated frames are absorbed by protocol idempotency"
      `Slow (fun () ->
        let chaos =
          {
            Lo_live.Cluster.default_chaos with
            kills = 0;
            link = { Lo_live.Faulty_link.none with dup = 0.4 };
          }
        in
        let r =
          Lo_live.Cluster.run ~out_dir:(tmp_dir "dup") ~base_port:7801
            ~chaos ~n:3 ~tps:30. ~duration:2.5 ~seed:5 ()
        in
        if not (Lo_live.Cluster.ok r) then
          Alcotest.fail (Lo_live.Cluster.summary r);
        check_int "no kills" 0 (List.length r.Lo_live.Cluster.induced_kills);
        check_int "no restarts" 0 r.Lo_live.Cluster.restarts;
        check_bool "traffic flowed" true (r.Lo_live.Cluster.frames > 0);
        check_int "one audit prefix" 1
          (occurrences "audit:" (Lo_live.Cluster.summary r)));
    Alcotest.test_case
      "kill and respawn leaves an audit-clean merged trace (two seeds)"
      `Slow (fun () ->
        List.iteri
          (fun i seed ->
            let chaos =
              {
                Lo_live.Cluster.default_chaos with
                kills = 1;
                mean_down = 0.8;
                link = Lo_live.Faulty_link.none;
              }
            in
            let r =
              Lo_live.Cluster.run
                ~out_dir:(tmp_dir (Printf.sprintf "kill-%d" seed))
                ~base_port:(7841 + (40 * i))
                ~chaos ~n:4 ~tps:24. ~duration:3.0 ~seed ()
            in
            if not (Lo_live.Cluster.ok r) then
              Alcotest.fail (Lo_live.Cluster.summary r);
            check_int "one induced kill" 1
              (List.length r.Lo_live.Cluster.induced_kills);
            check_bool "victim restarted" true
              (r.Lo_live.Cluster.restarts >= 1);
            check_bool "peers reconnected" true
              (r.Lo_live.Cluster.reconnects > 0);
            check_int "no honest exposure" 0 r.Lo_live.Cluster.exposures)
          [ 3; 11 ]);
    Alcotest.test_case
      "the report's counts are the merged trace's, killed incarnations \
       included"
      `Slow (fun () ->
        let chaos =
          {
            Lo_live.Cluster.default_chaos with
            kills = 2;
            mean_down = 0.8;
            link = Lo_live.Faulty_link.none;
          }
        in
        let out_dir = tmp_dir "ledger" in
        let r =
          Lo_live.Cluster.run ~out_dir ~base_port:7761 ~chaos ~n:4 ~tps:30.
            ~duration:4.0 ~seed:7 ()
        in
        if not (Lo_live.Cluster.ok r) then
          Alcotest.fail (Lo_live.Cluster.summary r);
        let entries = merged_entries out_dir in
        let count p = List.length (List.filter p entries) in
        let module Ev = Lo_obs.Event in
        check_int "two induced kills" 2
          (List.length r.Lo_live.Cluster.induced_kills);
        (* The case the old per-process counters missed: a victim that
           received frames before it was killed. *)
        check_bool "a killed incarnation delivered frames" true
          (List.exists
             (fun (kill_at, victim) ->
               List.exists
                 (fun (e : Lo_obs.Trace.entry) ->
                   match e.ev with
                   | Ev.Deliver { src; dst; _ } ->
                       dst = victim && src <> dst && e.at < kill_at
                   | _ -> false)
                 entries)
             r.Lo_live.Cluster.induced_kills);
        check_int "submitted" r.Lo_live.Cluster.submitted
          (count (fun e -> match e.ev with Ev.Submit _ -> true | _ -> false));
        check_int "frames" r.Lo_live.Cluster.frames
          (count (fun e ->
               match e.ev with Ev.Deliver { src; dst; _ } -> src <> dst | _ -> false));
        (* An incarnation ends at its node's next Restart; a Conn_up to
           a peer already connected in this incarnation is a reconnect. *)
        let seen = Hashtbl.create 16 in
        let reconnects =
          count (fun e ->
              match e.ev with
              | Ev.Restart { node } ->
                  Hashtbl.filter_map_inplace
                    (fun (n, _) () -> if n = node then None else Some ())
                    seen;
                  false
              | Ev.Conn_up { node; peer; _ } ->
                  Hashtbl.mem seen (node, peer)
                  || (Hashtbl.add seen (node, peer) ();
                      false)
              | _ -> false)
        in
        check_int "reconnects" r.Lo_live.Cluster.reconnects reconnects;
        check_bool "peers reconnected" true (reconnects > 0));
    Alcotest.test_case "a corrupt frame stream is one counted discard" `Slow
      (fun () ->
        let base_port = 7771 in
        (* An oversized length prefix. *)
        stranger ~port:base_port "\xff\xff\xff\xff";
        let out_dir = tmp_dir "malformed" in
        let r =
          Lo_live.Cluster.run ~out_dir ~base_port ~n:1 ~tps:10. ~duration:2.0
            ~seed:3 ()
        in
        if not (Lo_live.Cluster.ok r) then
          Alcotest.fail (Lo_live.Cluster.summary r);
        let malformed =
          List.filter
            (fun (e : Lo_obs.Trace.entry) ->
              match e.ev with Lo_obs.Event.Malformed _ -> true | _ -> false)
            (merged_entries out_dir)
        in
        check_bool "exactly one frame discard" true
          (match malformed with
          | [ { ev = Lo_obs.Event.Malformed { node = 0; src = -1; tag = "frame" }; _ } ]
            ->
              true
          | _ -> false));
    (* The host's two delivery branches that no peer of this
       implementation takes: a proto nobody subscribed, and a frame of
       another wire version. Each is charged as a [Deliver], then
       surfaced as an [Unknown_tag]. No [Send] was charged for the
       stranger's frames, so the audit's bandwidth check on their tag is
       the run's only fault. *)
    Alcotest.test_case "an unsubscribed proto and a foreign version surface"
      `Slow (fun () ->
        let base_port = 7791 in
        let frame = Lo_live.Frame.encode ~src:1 ~tag:"zz:ping" "hello" in
        (* The version byte follows the u32 body length. *)
        let skewed = Bytes.of_string frame in
        Bytes.set_uint8 skewed 4 (Lo_live.Frame.version + 1);
        stranger ~port:base_port (frame ^ Bytes.to_string skewed);
        let out_dir = tmp_dir "unknown" in
        let r =
          Lo_live.Cluster.run ~out_dir ~base_port ~n:1 ~tps:10. ~duration:2.0
            ~seed:3 ()
        in
        let module Ev = Lo_obs.Event in
        let foreign =
          Printf.sprintf "v%d:zz:ping" (Lo_live.Frame.version + 1)
        in
        let stranger_events =
          List.filter_map
            (fun (e : Lo_obs.Trace.entry) ->
              match e.ev with
              | Ev.Deliver { src = 1; dst = 0; tag = "zz:ping"; bytes = 5 } ->
                  Some "deliver"
              | Ev.Unknown_tag { node = 0; src = 1; tag } -> Some tag
              | _ -> None)
            (merged_entries out_dir)
        in
        check_bool "each Unknown_tag follows its Deliver" true
          (stranger_events = [ "deliver"; "zz:ping"; "deliver"; foreign ]);
        check_int "two remote frames" 2 r.Lo_live.Cluster.frames;
        check_int "two unknown" 2 r.Lo_live.Cluster.unknown;
        check_bool "no failed node" true (r.Lo_live.Cluster.failed_nodes = []);
        check_bool "the audit names only the uncharged tag" true
          (match r.Lo_live.Cluster.audit.Lo_obs.Audit.violations with
          | [ { invariant = "bandwidth-conservation"; detail; _ } ] ->
              String.starts_with ~prefix:"tag zz:ping:" detail
          | _ -> false));
    (* The fork rule: in a child (this process must keep forking), fan
       out one 32-signature Schnorr batch, then ask for a cluster. It
       must be refused before anything is forked or written. *)
    Alcotest.test_case "refused after a Schnorr fan-out, before any fork"
      `Quick (fun () ->
        let out_dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "lo-test-fanout-%d" (Unix.getpid ()))
        in
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 ->
            let sk, pk = Lo_crypto.Schnorr.keypair_of_seed "fork-rule" in
            let sigs =
              Array.init 32 (fun i ->
                  let msg = string_of_int i in
                  (pk, msg, Lo_crypto.Schnorr.sign sk msg))
            in
            let code =
              if Lo_crypto.Schnorr.batch_verify sigs <> `All_valid then 3
              else if not (Lo_crypto.Fanout.spawned ()) then 2
              else
                match
                  Lo_live.Cluster.run ~out_dir ~base_port:7921 ~n:2 ~tps:10.
                    ~duration:1. ~seed:1 ()
                with
                | _ -> 1
                | exception Failure m
                  when String.starts_with ~prefix:"Cluster.run:" m
                       && not (Sys.file_exists out_dir) ->
                    0
                | exception _ -> 1
            in
            Unix._exit code
        | pid -> (
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> ()
            | _, Unix.WEXITED 2 when Lo_crypto.Fanout.width () = 1 ->
                (* one core: no helpers, nothing to refuse *)
                ()
            | _, Unix.WEXITED c ->
                Alcotest.failf "child exited %d (0: refused in time)" c
            | _ -> Alcotest.fail "child killed"));
  ]

(* ---------------- Batched wire path ---------------- *)

(* [next_view] is the zero-copy decoder of the wire format: under any
   chunking, its frames are field for field those of the whole-stream
   reference parser in [frame_ref.ml]. *)
let batch_wire_tests =
  let frame_gen =
    QCheck2.Gen.(
      triple (int_bound 100_000)
        (string_size (int_bound 12))
        (string_size ~gen:(char_range '\000' '\255') (int_bound 200)))
  in
  let stream_of frames =
    String.concat ""
      (List.map (fun (src, tag, payload) -> Frame.encode ~src ~tag payload) frames)
  in
  let rec drain dec acc =
    match next dec with Some f -> drain dec (f :: acc) | None -> List.rev acc
  in
  [
    qtest "next_view = next under random chunking"
      QCheck2.Gen.(
        pair
          (list_size (int_bound 6) frame_gen)
          (list_size (int_bound 20) (int_range 1 37)))
      (fun (frames, chunks) ->
        let stream = stream_of frames in
        let dec = Frame.Decoder.create () in
        let out = ref [] in
        let off = ref 0 and sizes = ref chunks in
        let n = String.length stream in
        while !off < n do
          let k =
            match !sizes with
            | [] -> n - !off
            | s :: rest ->
                sizes := rest;
                min s (n - !off)
          in
          feed dec (String.sub stream !off k);
          off := !off + k;
          out := List.rev_append (drain dec []) !out
        done;
        List.rev !out = Frame_ref.parse stream);
    qtest "feed_bytes from an offset = reference parse"
      QCheck2.Gen.(list_size (int_bound 4) frame_gen)
      (fun frames ->
        let stream = stream_of frames in
        let dec = Frame.Decoder.create () in
        let b = Bytes.of_string ("??" ^ stream ^ "!!") in
        Frame.Decoder.feed_bytes dec b 2 (String.length stream);
        drain dec [] = Frame_ref.parse stream);
    Alcotest.test_case "view survives handling before the next feed" `Quick
      (fun () ->
        (* Two frames in one buffered chunk: the first view must stay
           readable while consumed, and advancing to the second frame
           is what invalidates it — the documented lifetime. *)
        let f1 = Frame.encode ~src:1 ~tag:"lo:a" "first-payload" in
        let f2 = Frame.encode ~src:2 ~tag:"lo:b" "second" in
        let dec = Frame.Decoder.create () in
        feed dec (f1 ^ f2);
        (match Frame.Decoder.next_view dec with
        | Some v ->
            check_string "payload" "first-payload"
              (Lo_codec.Reader.fixed v.Frame.Decoder.v_payload 13)
        | None -> Alcotest.fail "first frame should be ready");
        match Frame.Decoder.next_view dec with
        | Some v ->
            check_int "src" 2 v.Frame.Decoder.v_src;
            check_string "tag" "lo:b" v.Frame.Decoder.v_tag
        | None -> Alcotest.fail "second frame should be ready");
    qtest ~count:300 "next_view adversarial bytes never escape Malformed"
      QCheck2.Gen.(
        pair
          (string_size ~gen:(char_range '\000' '\255') (int_range 0 400))
          (list_size (int_bound 20) (int_range 1 37)))
      (fun (garbage, chunks) ->
        let dec = Frame.Decoder.create () in
        let off = ref 0 and sizes = ref chunks in
        let n = String.length garbage in
        let ok = ref true in
        (try
           while !off < n do
             let k =
               match !sizes with
               | [] -> n - !off
               | s :: rest ->
                   sizes := rest;
                   min s (n - !off)
             in
             feed dec (String.sub garbage !off k);
             off := !off + k;
             let rec drain () =
               match Frame.Decoder.next_view dec with
               | Some _ -> drain ()
               | None -> ()
             in
             drain ()
           done
         with
        | Lo_codec.Reader.Malformed _ -> ()
        | _ -> ok := false);
        !ok);
  ]

let () =
  Alcotest.run "lo_live"
    [
      ("frame", frame_tests);
      ("batch-wire", batch_wire_tests);
      ("timer_wheel", timer_tests);
      ("mux", mux_tests);
      ("reconnect", reconnect_tests);
      ("faulty_link", faulty_link_tests);
      ("link", link_tests @ [ link_qcheck ]);
      ("decoder_fuzz", decoder_fuzz_tests);
      ("resume", resume_tests);
      ("host", host_tests);
      ("cluster_chaos", cluster_tests);
    ]
