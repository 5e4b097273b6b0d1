module Rng = Lo_net.Rng
module Fault_plan = Lo_net.Fault_plan

type chaos = {
  kills : int;
  rate : float option;
  mean_down : float;
  link : Faulty_link.spec;
}

let default_link_faults =
  {
    Faulty_link.drop = 0.01;
    dup = 0.01;
    delay = 0.02;
    delay_max = 0.08;
    truncate = 0.004;
    garble = 0.004;
  }

let default_chaos =
  { kills = 3; rate = None; mean_down = 1.5; link = default_link_faults }

let chaos_of_string s =
  let parse_field c kv =
    match String.index_opt kv '=' with
    | None -> Error (Printf.sprintf "chaos: expected key=value, got %S" kv)
    | Some i -> (
        let key = String.sub kv 0 i in
        let v = String.sub kv (i + 1) (String.length kv - i - 1) in
        let flt () =
          match float_of_string_opt v with
          | Some f when f >= 0. -> Ok f
          | _ -> Error (Printf.sprintf "chaos: bad value for %s: %S" key v)
        in
        let num f = Result.map f (flt ()) in
        match key with
        | "kills" -> num (fun f -> { c with kills = int_of_float f })
        | "rate" -> num (fun f -> { c with rate = Some f })
        | "down" -> num (fun f -> { c with mean_down = f })
        | "drop" -> num (fun f -> { c with link = { c.link with drop = f } })
        | "dup" -> num (fun f -> { c with link = { c.link with dup = f } })
        | "delay" -> num (fun f -> { c with link = { c.link with delay = f } })
        | "dmax" ->
            num (fun f -> { c with link = { c.link with delay_max = f } })
        | "trunc" ->
            num (fun f -> { c with link = { c.link with truncate = f } })
        | "garble" ->
            num (fun f -> { c with link = { c.link with garble = f } })
        | _ -> Error (Printf.sprintf "chaos: unknown key %S" key))
  in
  let parts =
    List.filter
      (fun p -> not (String.equal p ""))
      (List.map String.trim (String.split_on_char ',' s))
  in
  let rec go c = function
    | [] -> (
        match Faulty_link.validate c.link with
        | () -> Ok c
        | exception Invalid_argument m -> Error m)
    | kv :: rest -> ( match parse_field c kv with Ok c -> go c rest | Error _ as e -> e)
  in
  go default_chaos parts

(* The process-level chaos schedule, expressed in the DES's own fault
   vocabulary: a list of [Crash {node; down_for = Some d}] events. With
   [rate] set the schedule is the simulator's Poisson churn generator
   verbatim; otherwise exactly [kills] distinct victims at seeded times.
   Kill times land in the first two thirds of the run and down windows
   are clamped so every respawn happens by 0.85 x duration: a restart
   must have live traffic left to reconnect into, re-announce against,
   and get its suspicions withdrawn during. *)
let plan_of_chaos ~n ~duration ~seed c =
  let rng = Rng.create ((seed * 48271) lxor 0x9e3779b9) in
  let clamp_down ~at d =
    Float.max 0.3 (Float.min d ((0.85 *. duration) -. at))
  in
  match c.rate with
  | Some rate ->
      Fault_plan.churn ~rng ~n ~rate ~mean_down:c.mean_down
        ~until:(0.6 *. duration)
      |> List.map (fun (e : Fault_plan.event) ->
             match e.fault with
             | Fault_plan.Crash { node; down_for = Some d } ->
                 {
                   e with
                   Fault_plan.fault =
                     Fault_plan.Crash
                       { node; down_for = Some (clamp_down ~at:e.at d) };
                 }
             | _ -> e)
  | None ->
      let kills = min c.kills n in
      if kills <= 0 then []
      else begin
        let victims =
          Rng.sample_without_replacement rng kills (List.init n Fun.id)
        in
        let lo = 0.15 *. duration and hi = 0.6 *. duration in
        List.map
          (fun node ->
            let at = lo +. Rng.float rng (hi -. lo) in
            let down =
              clamp_down ~at (c.mean_down *. (0.6 +. Rng.float rng 0.8))
            in
            { Fault_plan.at; fault = Fault_plan.Crash { node; down_for = Some down } })
          victims
        |> List.sort (fun (a : Fault_plan.event) b -> Float.compare a.at b.at)
      end

type report = {
  n : int;
  seed : int;
  duration : float;
  out_dir : string;
  submitted : int;
  frames : int;
  unknown : int;
  overflows : int;
  events : int;
  exposures : int;
  failed_nodes : int list;
  induced_kills : (float * int) list;
  restarts : int;
  reconnects : int;
  watchdog_killed : int list;
  synthesized_drops : int;
  truncated_lines : int;
  audit : Lo_obs.Audit.report;
}

let trace_path dir i inc =
  Filename.concat dir (Printf.sprintf "node-%d.%d.jsonl" i inc)

let mkdir_p dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let default_out_dir () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "lo-cluster-%d" (Unix.getpid ()))

(* A child must never return into the caller's world (under the test
   runner, [Stdlib.exit] would run the parent's at_exit hooks); flush
   what is ours and leave through [Unix._exit]. *)
let child ~cfg ~tp i =
  let code =
    try
      ignore (Host.run ~trace_path:tp cfg);
      0
    with e ->
      Printf.eprintf "lo cluster: node %d failed: %s\n%!" i
        (Printexc.to_string e);
      1
  in
  flush stdout;
  flush stderr;
  Unix._exit code

(* How far past the horizon (epoch + duration + drain) a child may live
   before the watchdog SIGKILLs it: a deadlocked host must never hang
   the run. *)
let watchdog_grace = 5.0

let sigkill pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

(* Connections one incarnation re-established: each [Conn_up] after the
   first towards the same peer. *)
let reconnects_in entries =
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun acc (e : Lo_obs.Trace.entry) ->
      match e.ev with
      | Lo_obs.Event.Conn_up { peer; _ } when Hashtbl.mem seen peer -> acc + 1
      | Lo_obs.Event.Conn_up { peer; _ } ->
          Hashtbl.add seen peer ();
          acc
      | _ -> acc)
    0 entries

let close_deficits trace =
  let at = Lo_obs.Trace.last_at trace in
  List.fold_left
    (fun emitted (tag, (f : Lo_obs.Trace.flow)) ->
      let m = f.sent_msgs - f.delivered_msgs - f.dropped_msgs
      and b = f.sent_bytes - f.delivered_bytes - f.dropped_bytes in
      if m > 0 && b >= 0 then begin
        let per = b / m in
        for k = 0 to m - 1 do
          let bytes = if k = 0 then b - (per * (m - 1)) else per in
          Lo_obs.Trace.emit trace ~at
            (Lo_obs.Event.Drop
               { src = -1; dst = -1; tag; bytes; reason = Lo_obs.Event.Down })
        done;
        emitted + m
      end
      else emitted)
    0
    (Lo_obs.Trace.tag_flows trace)

let run ?out_dir ?(base_port = Host.default_base_port)
    ?chaos ?signer ~n ~tps ~duration ~seed () =
  if n <= 0 then invalid_arg "Cluster.run: n";
  (* [Unix.fork] would fail at the first spawn, with a message that
     does not say why. *)
  if Lo_crypto.Fanout.spawned () then
    failwith
      "Cluster.run: this process has spawned Lo_crypto.Fanout's helper \
       domains (a large Schnorr batch verification), and OCaml cannot \
       fork once a second domain has existed; start the cluster from a \
       process that has not verified such a batch";
  let dir = match out_dir with Some d -> d | None -> default_out_dir () in
  mkdir_p dir;
  let plan =
    match chaos with
    | None -> []
    | Some c -> plan_of_chaos ~n ~duration ~seed c
  in
  let faults =
    match chaos with None -> Faulty_link.none | Some c -> c.link
  in
  (* Give every process time to build its deployment, bind and connect
     before protocol time zero; scale mildly with cluster size. *)
  let epoch = Clock.now_s () +. 1.0 +. (0.05 *. float_of_int n) in

  (* --- supervision state --- *)
  let children : (int, int) Hashtbl.t = Hashtbl.create 32 in
  (* pid -> node *)
  let killed_pids : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let live_pid = Array.make n None in
  let incarnation = Array.make n 0 in
  let paths = Array.make n [] in
  (* newest-first trace paths per node *)
  let unreaped = ref 0 in
  let failed = ref [] in
  let watchdog_killed = ref [] in
  let induced = ref [] in
  (* (rel kill time, node), newest first *)
  let spawn node =
    let inc = incarnation.(node) in
    let tp = trace_path dir node inc in
    let resume_from = List.rev paths.(node) in
    paths.(node) <- tp :: paths.(node);
    let cfg =
      Host.config ~id:node ~n ~base_port ~seed ~tps ~duration
        ~incarnation:inc ~resume_from ~faults ?signer ~epoch ()
    in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 -> child ~cfg ~tp node
    | pid ->
        Hashtbl.replace children pid node;
        live_pid.(node) <- Some pid;
        incr unreaped
  in
  for i = 0 to n - 1 do
    spawn i
  done;

  (* Kill times from the plan are absolute; respawns follow the plan's
     down window from the moment the kill actually landed. *)
  let kills =
    ref
      (List.filter_map
         (fun (e : Fault_plan.event) ->
           match e.fault with
           | Fault_plan.Crash { node; down_for = Some d } when node < n ->
               Some (epoch +. e.at, node, d)
           | _ -> None)
         plan)
  in
  let respawns = ref [] in
  let deadline = epoch +. duration +. Host.drain +. watchdog_grace in
  let rec reap () =
    match Retry.waitpid [ Unix.WNOHANG ] (-1) with
    | 0, _ -> ()
    | pid, status ->
        (match Hashtbl.find_opt children pid with
        | None -> ()
        | Some node ->
            decr unreaped;
            if live_pid.(node) = Some pid then live_pid.(node) <- None;
            let expected_kill =
              Hashtbl.mem killed_pids pid || List.mem node !watchdog_killed
            in
            (match status with
            | Unix.WEXITED 0 -> ()
            | Unix.WSIGNALED s when expected_kill && s = Sys.sigkill -> ()
            | _ -> if not (List.mem node !failed) then failed := node :: !failed));
        reap ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  while !unreaped > 0 || !respawns <> [] do
    reap ();
    let now = Clock.now_s () in
    let due, rest = List.partition (fun (at, _, _) -> at <= now) !kills in
    kills := rest;
    List.iter
      (fun (_, node, down) ->
        match live_pid.(node) with
        | Some pid ->
            (* Mark before the signal lands so the reap loop can never
               misread an induced kill as a genuine failure. *)
            Hashtbl.replace killed_pids pid ();
            induced := (Clock.now_s () -. epoch, node) :: !induced;
            sigkill pid;
            respawns := (now +. down, node) :: !respawns
        | None -> ()
        (* already dead (genuine failure): nothing to kill, no respawn *))
      due;
    let due, rest = List.partition (fun (at, _) -> at <= now) !respawns in
    respawns := rest;
    List.iter
      (fun (_, node) ->
        incarnation.(node) <- incarnation.(node) + 1;
        spawn node)
      due;
    if now > deadline then begin
      kills := [];
      respawns := [];
      Array.iteri
        (fun node pid_opt ->
          match pid_opt with
          | Some pid ->
              if not (List.mem node !watchdog_killed) then
                watchdog_killed := node :: !watchdog_killed;
              sigkill pid
          | None -> ())
        live_pid
    end;
    if !unreaped > 0 || !respawns <> [] then Clock.sleep 0.02
  done;
  reap ();

  (* --- merge --- *)
  let truncated = ref 0 and reconnects = ref 0 in
  let entries =
    List.concat_map
      (fun node ->
        List.concat_map
          (fun path ->
            match Resume.parse_lenient ~path with
            | Ok (es, cut) ->
                truncated := !truncated + cut;
                reconnects := !reconnects + reconnects_in es;
                es
            | Error msg ->
                Printf.eprintf "lo cluster: node %d trace unreadable: %s\n%!"
                  node msg;
                if not (List.mem node !failed) then failed := node :: !failed;
                [])
          (List.rev paths.(node)))
      (List.init n Fun.id)
  in
  (* The supervisor is the only witness of the kills themselves; insert
     the Crash events the victims could not write. Their Restarts are
     emitted by the respawned incarnations. *)
  let entries =
    entries
    @ List.rev_map
        (fun (at, node) -> { Lo_obs.Trace.at; ev = Lo_obs.Event.Crash { node } })
        !induced
  in
  (* Stable by timestamp: same-instant events keep node order, which is
     all the auditor's non-decreasing-time requirement needs. *)
  let entries =
    List.stable_sort
      (fun (a : Lo_obs.Trace.entry) b -> Float.compare a.at b.at)
      entries
  in
  (* One pass over the merged stream: the audit and the merged.jsonl
     writer both observe a one-entry trace the entries are replayed
     into. *)
  let trace = Lo_obs.Trace.create ~capacity:1 () in
  let auditor = Lo_obs.Audit.attach trace in
  let frames = ref 0 and overflows = ref 0 in
  Lo_obs.Trace.observe trace (fun e ->
      match e.Lo_obs.Trace.ev with
      | Lo_obs.Event.Deliver { src; dst; _ } when src <> dst -> incr frames
      | Lo_obs.Event.Drop { reason = Lo_obs.Event.Overflow; _ } ->
          incr overflows
      | _ -> ());
  let synthesized =
    Out_channel.with_open_text (Filename.concat dir "merged.jsonl") (fun oc ->
        Lo_obs.Trace.observe trace (fun e ->
            output_string oc (Lo_obs.Jsonl.line e);
            output_char oc '\n');
        List.iter
          (fun { Lo_obs.Trace.at; ev } -> Lo_obs.Trace.emit trace ~at ev)
          entries;
        (* A SIGKILLed host can neither deliver what was in flight to it
           nor drop what sat in its own queues; its write-ahead trace
           guarantees every such frame still has a durable Send, so with
           induced kills the per-tag deficits are non-negative and
           attributable to the crashes. Without induced kills nothing is
           synthesized: a deficit then is a real accounting bug and must
           fail the audit. *)
        if !induced <> [] then close_deficits trace else 0)
  in
  let audit = Lo_obs.Audit.finish auditor in
  {
    n;
    seed;
    duration;
    out_dir = dir;
    submitted = Lo_obs.Trace.count trace "submit";
    frames = !frames;
    unknown = Lo_obs.Trace.count trace "unknown_tag";
    overflows = !overflows;
    events = Lo_obs.Trace.total trace;
    exposures = Lo_obs.Trace.count trace "expose";
    failed_nodes = List.sort Int.compare !failed;
    induced_kills = List.rev !induced;
    restarts = Lo_obs.Trace.count trace "restart";
    reconnects = !reconnects;
    watchdog_killed = List.sort Int.compare !watchdog_killed;
    synthesized_drops = synthesized;
    truncated_lines = !truncated;
    audit;
  }

let ok r =
  r.failed_nodes = [] && r.watchdog_killed = []
  && Lo_obs.Audit.ok r.audit
  && r.exposures = 0
  && r.restarts >= List.length r.induced_kills
  && (r.n <= 1 || r.frames > 0)

let summary r =
  let b = Buffer.create 256 in
  Printf.bprintf b "cluster: n=%d seed=%d duration=%.1fs out=%s\n" r.n r.seed
    r.duration r.out_dir;
  Printf.bprintf b
    "workload: %d txs submitted (%.1f tx/s offered), %d frames, %d \
     unknown-tag, %d overflow drop(s)\n"
    r.submitted (float_of_int r.submitted /. r.duration) r.frames r.unknown
    r.overflows;
  if r.induced_kills <> [] || r.restarts > 0 || r.reconnects > 0 then
    Printf.bprintf b
      "chaos: %d induced kill(s)%s, %d restart(s), %d reconnect(s), %d \
       synthesized crash drop(s), %d truncated trace line(s)\n"
      (List.length r.induced_kills)
      (match r.induced_kills with
      | [] -> ""
      | ks ->
          Printf.sprintf " [%s]"
            (String.concat ","
               (List.map
                  (fun (at, node) -> Printf.sprintf "%d@%.1fs" node at)
                  ks)))
      r.restarts r.reconnects r.synthesized_drops r.truncated_lines;
  Printf.bprintf b "%s\n" (Lo_obs.Audit.summary r.audit);
  List.iter
    (fun v -> Printf.bprintf b "  %s\n" (Lo_obs.Audit.violation_to_string v))
    r.audit.Lo_obs.Audit.violations;
  Printf.bprintf b "exposures: %d%s\n" r.exposures
    (if r.exposures = 0 then "" else " (HONEST NODE EXPOSED)");
  (match r.failed_nodes with
  | [] -> ()
  | l ->
      Printf.bprintf b "failed nodes: %s\n"
        (String.concat "," (List.map string_of_int l)));
  (match r.watchdog_killed with
  | [] -> ()
  | l ->
      Printf.bprintf b "watchdog killed: %s\n"
        (String.concat "," (List.map string_of_int l)));
  Printf.bprintf b "result: %s" (if ok r then "PASS" else "FAIL");
  Buffer.contents b
