(* Command-line entry point: regenerate any of the paper's experiments.

   `lo all` reproduces the full evaluation section; individual
   subcommands run one figure at a configurable scale. *)

open Cmdliner

let scale_term =
  let nodes =
    let doc = "Number of simulated miners." in
    Arg.(value & opt int Lo_sim.Experiments.default_scale.nodes
         & info [ "n"; "nodes" ] ~doc)
  in
  let reps =
    let doc = "Independent repetitions to average." in
    Arg.(value & opt int Lo_sim.Experiments.default_scale.reps
         & info [ "reps" ] ~doc)
  in
  let rate =
    let doc = "Workload in transactions per second (paper default: 20)." in
    Arg.(value & opt float Lo_sim.Experiments.default_scale.rate
         & info [ "rate" ] ~doc)
  in
  let duration =
    let doc = "Workload duration in simulated seconds." in
    Arg.(value & opt float Lo_sim.Experiments.default_scale.duration
         & info [ "duration" ] ~doc)
  in
  let seed =
    let doc = "Root random seed (runs are fully deterministic)." in
    Arg.(value & opt int Lo_sim.Experiments.default_scale.seed
         & info [ "seed" ] ~doc)
  in
  let make nodes reps rate duration seed =
    { Lo_sim.Experiments.nodes; reps; rate; duration; seed }
  in
  Term.(const make $ nodes $ reps $ rate $ duration $ seed)

let run_fig6 scale = ignore (Lo_sim.Experiments.fig6 ~scale ())
let run_fig7 scale = ignore (Lo_sim.Experiments.fig7 ~scale ())

let run_fig8 scale =
  ignore (Lo_sim.Experiments.fig8_left ~scale ());
  ignore (Lo_sim.Experiments.fig8_right ~scale ())

let run_fig9 scale = ignore (Lo_sim.Experiments.fig9 ~scale ())
let run_fig10 scale = ignore (Lo_sim.Experiments.fig10 ~scale ())
let run_memcpu scale = ignore (Lo_sim.Experiments.memcpu ~scale ())
let run_ablation scale = ignore (Lo_sim.Experiments.ablation ~scale ())

let run_chaos scale audit =
  let cells = Lo_sim.Experiments.chaos ~scale ~audit () in
  (* The acceptance property of the fault framework: a fault schedule
     must never get an honest node exposed. Fail the process so
     `make chaos-smoke` gates CI on it. *)
  let exposed =
    List.fold_left
      (fun acc c -> acc + c.Lo_sim.Experiments.honest_exposures)
      0 cells
  in
  if exposed > 0 then begin
    prerr_endline
      (Printf.sprintf "chaos: %d exposure(s) of honest nodes — FAILED" exposed);
    exit 1
  end;
  let audit_bad =
    List.fold_left
      (fun acc c -> acc + c.Lo_sim.Experiments.audit_violations)
      0 cells
  in
  if audit_bad > 0 then begin
    prerr_endline
      (Printf.sprintf "chaos: %d audit violation(s) — FAILED" audit_bad);
    exit 1
  end

let run_replay scale audit trace_file =
  let text =
    let ic = open_in trace_file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  match Lo_workload.Trace.parse text with
  | Error msg ->
      prerr_endline ("trace parse error: " ^ msg);
      exit 1
  | Ok trace ->
      let result = Lo_sim.Experiments.replay ~scale ~audit ~trace () in
      if result.Lo_sim.Experiments.audit_violations > 0 then begin
        prerr_endline
          (Printf.sprintf "replay: %d audit violation(s) — FAILED"
             result.Lo_sim.Experiments.audit_violations);
        exit 1
      end

let run_trace scale kind out audit capacity =
  let kind =
    match kind with
    | "baseline" -> `Baseline
    | "chaos" -> `Chaos
    | "adversary" -> `Adversary
    | other ->
        prerr_endline
          (Printf.sprintf
             "unknown trace scenario %S (expected baseline|chaos|adversary)"
             other);
        exit 2
  in
  let result = Lo_sim.Experiments.trace_run ~scale ?capacity ~kind () in
  (match out with
  | None -> ()
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun e -> output_string oc (Lo_obs.Jsonl.line e ^ "\n"))
            (Lo_obs.Trace.events result.Lo_sim.Experiments.trace));
      Printf.printf "wrote %d events to %s\n"
        (Lo_obs.Trace.length result.Lo_sim.Experiments.trace)
        path);
  if audit && not (Lo_obs.Audit.ok result.Lo_sim.Experiments.audit) then begin
    prerr_endline "trace: audit violations — FAILED";
    exit 1
  end

let run_selfcheck _scale =
  (* Offline sanity of the from-scratch substrates: standard vectors and
     structural invariants. Fails loudly on any mismatch. *)
  let check name cond =
    Printf.printf "%-44s %s
" name (if cond then "ok" else "FAILED");
    if not cond then exit 1
  in
  check "sha256 empty-string vector"
    (Lo_crypto.Hex.encode (Lo_crypto.Sha256.digest "")
    = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  check "sha256 'abc' vector"
    (Lo_crypto.Hex.encode (Lo_crypto.Sha256.digest "abc")
    = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  check "hmac rfc4231 vector"
    (Lo_crypto.Hex.encode
       (Lo_crypto.Hmac.sha256 ~key:"Jefe" "what do ya want for nothing?")
    = "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  check "secp256k1 generator order"
    (Lo_crypto.Secp256k1.is_infinity
       (Lo_crypto.Secp256k1.mul Lo_crypto.Scalar.n Lo_crypto.Secp256k1.g));
  let sk, pk = Lo_crypto.Schnorr.keypair_of_seed "selfcheck" in
  let signature = Lo_crypto.Schnorr.sign sk "selfcheck-message" in
  check "schnorr sign/verify"
    (Lo_crypto.Schnorr.verify pk ~msg:"selfcheck-message" ~signature);
  check "schnorr rejects wrong message"
    (not (Lo_crypto.Schnorr.verify pk ~msg:"other" ~signature));
  let sketch_ok =
    let a = Lo_sketch.Sketch.of_list ~capacity:16 [ 11; 22; 33 ] in
    let b = Lo_sketch.Sketch.of_list ~capacity:16 [ 22; 33; 44 ] in
    Lo_sketch.Sketch.decode (Lo_sketch.Sketch.merge a b) = Ok [ 44; 11 ]
    || Lo_sketch.Sketch.decode (Lo_sketch.Sketch.merge a b) = Ok [ 11; 44 ]
  in
  check "pinsketch symmetric difference" sketch_ok;
  check "gf(2^32) field inverse"
    (Lo_sketch.Gf2m.mul 0xDEADBEEF (Lo_sketch.Gf2m.inv 0xDEADBEEF) = 1);
  let scheme = Lo_crypto.Signer.simulation () in
  let signer = Lo_crypto.Signer.make scheme ~seed:"selfcheck" in
  let log = Lo_core.Commitment.Log.create ~signer () in
  ignore (Lo_core.Commitment.Log.append log ~source:None ~ids:[ 7 ]);
  check "commitment digest verifies"
    (Lo_core.Commitment.verify scheme (Lo_core.Commitment.Log.current_digest log));
  print_endline "all self-checks passed."

let run_fuzz cases seed mutate replay repro_dir shrink_budget jobs =
  let print_verdict (o : Lo_check.Harness.outcome) =
    let v = o.Lo_check.Harness.verdict in
    Printf.printf "  scenario: %s\n" (Lo_check.Scenario.describe o.scenario);
    Printf.printf "  events: %d  detections: %d  required: %d\n" o.events
      (List.length v.Lo_check.Oracle.detections)
      v.Lo_check.Oracle.required_detections;
    if v.Lo_check.Oracle.failures <> [] then
      print_endline
        (Lo_check.Oracle.failures_to_string v.Lo_check.Oracle.failures)
  in
  match replay with
  | Some path -> (
      match Lo_check.Harness.read_repro ~path with
      | Error msg ->
          prerr_endline ("fuzz: cannot load repro: " ^ msg);
          exit 2
      | Ok scenario ->
          let o = Lo_check.Harness.execute scenario in
          Printf.printf "replaying %s\n" path;
          print_verdict o;
          if Lo_check.Harness.failed o then begin
            print_endline "replay: FAILED (as recorded)";
            exit 1
          end
          else print_endline "replay: passed")
  | None -> (
      let results = Lo_check.Harness.fuzz ~n:cases ~seed ?mutation:mutate ?jobs () in
      let failures =
        List.filter
          (fun c -> Lo_check.Harness.failed c.Lo_check.Harness.outcome)
          results
      in
      let total_events, total_detections, total_required, with_adv =
        List.fold_left
          (fun (e, d, r, a) c ->
            let o = c.Lo_check.Harness.outcome in
            let v = o.Lo_check.Harness.verdict in
            ( e + o.Lo_check.Harness.events,
              d + List.length v.Lo_check.Oracle.detections,
              r + v.Lo_check.Oracle.required_detections,
              a
              + min 1
                  (List.length
                     o.Lo_check.Harness.scenario.Lo_check.Scenario.adversaries)
            ))
          (0, 0, 0, 0) results
      in
      Printf.printf
        "fuzz: %d cases (seed %d)%s\n\
        \  adversarial cases: %d   events audited: %d\n\
        \  detections: %d (required %d)   failing cases: %d\n"
        cases seed
        (match mutate with Some m -> " mutation=" ^ m | None -> "")
        with_adv total_events total_detections total_required
        (List.length failures);
      match mutate with
      | Some m ->
          (* Sensitivity check: the harness must catch the hidden
             deviation whenever it observably fired. *)
          let vacuous, missed, caught =
            List.fold_left
              (fun (v, miss, c) case ->
                let o = case.Lo_check.Harness.outcome in
                if Lo_check.Harness.failed o then (v, miss, c + 1)
                else if o.Lo_check.Harness.mutant_observable = 0 then
                  (v + 1, miss, c)
                else (v, case.Lo_check.Harness.index :: miss, c))
              (0, [], 0) results
          in
          Printf.printf "mutate %s: caught %d, vacuous %d, missed %d\n" m
            caught vacuous (List.length missed);
          if missed <> [] then begin
            List.iter
              (fun i -> Printf.printf "  case %d: mutant escaped the oracles\n" i)
              (List.rev missed);
            print_endline "mutate: FAILED (mutant survived)";
            exit 1
          end;
          if caught = 0 then begin
            print_endline
              "mutate: FAILED (mutation never fired; no case caught)";
            exit 1
          end;
          print_endline "mutate: all observable mutants caught"
      | None ->
          if failures = [] then print_endline "fuzz: all oracles passed"
          else begin
            List.iter
              (fun c ->
                let o = c.Lo_check.Harness.outcome in
                Printf.printf "case %d FAILED\n" c.Lo_check.Harness.index;
                print_verdict o;
                let minimal, runs =
                  Lo_check.Harness.shrink ?budget:shrink_budget
                    o.Lo_check.Harness.scenario
                in
                let path =
                  Filename.concat repro_dir
                    (Printf.sprintf "fuzz-repro-%d.json" c.Lo_check.Harness.index)
                in
                Lo_check.Harness.write_repro ~path minimal;
                Printf.printf
                  "  shrunk in %d runs to: %s\n  repro written to %s\n" runs
                  (Lo_check.Scenario.describe minimal)
                  path)
              failures;
            print_endline "fuzz: FAILED";
            exit 1
          end)

let run_all scale =
  run_fig6 scale;
  run_fig7 scale;
  run_fig8 scale;
  run_fig9 scale;
  run_fig10 scale;
  run_memcpu scale

(* --- live localhost cluster (lib/live) --- *)

let run_serve id n base_port seed tps duration epoch out =
  let epoch =
    (* Standalone use: agree on "the next whole second + 1" so that
       independently launched processes pick the same zero without a
       coordinator, or take the exact epoch `lo cluster` passed down. *)
    match epoch with
    | Some e -> e
    | None -> Float.of_int (int_of_float (Lo_live.Clock.now_s ()) + 2)
  in
  let cfg =
    Lo_live.Host.config ~id ~n ~base_port ~seed ~tps ~duration ~epoch ()
  in
  let counts =
    Lo_obs.Trace.kind_counts (Lo_live.Host.run ?trace_path:out cfg)
  in
  Printf.printf "node %d: %s\n" id
    (String.concat ", "
       (List.map (fun (k, c) -> Printf.sprintf "%d %s" c k) counts))

let run_cluster n tps duration seed base_port out_dir chaos signer =
  let chaos =
    match chaos with
    | None -> None
    | Some spec -> (
        match Lo_live.Cluster.chaos_of_string spec with
        | Ok c -> Some c
        | Error msg ->
            prerr_endline ("lo cluster: " ^ msg);
            exit 2)
  in
  let report =
    Lo_live.Cluster.run ?out_dir ?chaos ~signer ~base_port ~n ~tps ~duration
      ~seed ()
  in
  print_endline (Lo_live.Cluster.summary report);
  if not (Lo_live.Cluster.ok report) then exit 1

(* --- paper-scale sharded sweep (Lo_sim.Scale) --- *)

let print_scale oc out report =
  (match (oc, out) with
  | Some oc, Some path ->
      close_out oc;
      Printf.printf "wrote %d events to %s\n" report.Lo_sim.Scale.events path
  | _ -> ());
  Printf.printf "shard  nodes  adv  events    txs  delivered  detections\n";
  List.iter
    (fun (s : Lo_sim.Scale.shard_report) ->
      Printf.printf "%5d  %5d  %3d  %7d  %5d  %9d  %10d\n" s.shard s.nodes
        s.adversaries s.events s.txs s.delivered s.detections)
    report.Lo_sim.Scale.shards;
  Printf.printf
    "total: %d nodes, %d shards, %d events, %d txs (%d delivered), %d \
     adversary detections\n"
    report.Lo_sim.Scale.n
    (List.length report.Lo_sim.Scale.shards)
    report.Lo_sim.Scale.events report.Lo_sim.Scale.txs
    report.Lo_sim.Scale.delivered report.Lo_sim.Scale.detections;
  Printf.printf "wall: %.1f s%s\n" report.Lo_sim.Scale.wall_s
    (match report.Lo_sim.Scale.peak_rss_mb with
    | Some mb -> Printf.sprintf ", peak rss: %.0f MB" mb
    | None -> "");
  List.iter
    (fun f -> Printf.printf "  FAILURE: %s\n" f)
    report.Lo_sim.Scale.failures;
  if report.Lo_sim.Scale.honest_exposures > 0 then
    Printf.printf "  FAILURE: %d honest exposure(s)\n"
      report.Lo_sim.Scale.honest_exposures;
  if Lo_sim.Scale.ok report then print_endline "scale: audit PASS"
  else begin
    print_endline "scale: FAILED";
    exit 1
  end

(* A parameter the sweep rejects (a fraction outside [0, 1], too many
   shards) is a usage error. *)
let run_scale scale shards fraction drain digest_history out jobs =
  let oc = Option.map open_out out in
  match
    Lo_sim.Scale.sweep ?shards ~malicious_fraction:fraction
      ~rate:scale.Lo_sim.Experiments.rate ~duration:scale.Lo_sim.Experiments.duration
      ~drain ~digest_history ?out:oc ?jobs ~n:scale.Lo_sim.Experiments.nodes
      ~seed:scale.Lo_sim.Experiments.seed ()
  with
  | exception Invalid_argument msg ->
      Option.iter close_out oc;
      `Error (true, msg)
  | report ->
      print_scale oc out report;
      `Ok ()

let scale_cmd =
  let shards_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Independent shard worlds (default: sized to ~625 nodes \
             each). The merged result is byte-identical for any LO_JOBS.")
  in
  let fraction_arg =
    Arg.(
      value & opt float 0.1
      & info [ "fraction" ] ~docv:"F"
          ~doc:"Fraction of silent-censor adversaries per shard.")
  in
  let drain_arg =
    Arg.(
      value & opt float 30.
      & info [ "drain" ] ~docv:"SECONDS"
          ~doc:"Post-workload drain (suspicions must age past the audit \
                grace window).")
  in
  let history_arg =
    Arg.(
      value & opt int 16
      & info [ "digest-history" ] ~docv:"K"
          ~doc:"Own-digest full-sketch retention window (memory lean).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Write the merged shard traces as JSONL to $(docv) (shard \
             order; expect hundreds of MB at 10k nodes).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:"Domain pool size (overrides LO_JOBS).")
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Paper-scale fig6-style sweep: shard n nodes into independent \
          worlds across domains, audit every shard, fail on any honest \
          blame")
    Term.(
      ret
        (const run_scale $ scale_term $ shards_arg $ fraction_arg $ drain_arg
       $ history_arg $ out_arg $ jobs_arg))

let cmd name doc run =
  Cmd.v (Cmd.info name ~doc) Term.(const run $ scale_term)

let default =
  Term.(ret (const (fun _ -> `Help (`Pager, None)) $ scale_term))

let () =
  let info =
    Cmd.info "lo" ~version:"1.0.0"
      ~doc:"Reproduce the evaluation of 'LO: An Accountable Mempool for MEV Resistance'"
  in
  let cmds =
    [
      cmd "fig6" "Resilience to malicious miners (suspicion/exposure times)" run_fig6;
      cmd "fig7" "Mempool inclusion latency distribution" run_fig7;
      cmd "fig8" "Block inclusion latency: FIFO vs Highest-Fee, and vs system size" run_fig8;
      cmd "fig9" "Bandwidth overhead: LO vs Flood vs PeerReview vs Narwhal" run_fig9;
      cmd "fig10" "Sketch reconciliations per minute vs workload" run_fig10;
      cmd "memcpu" "Sec. 6.5 memory and CPU overhead" run_memcpu;
      scale_cmd;
      cmd "ablate" "Ablations: light vs full digests; digest-share period" run_ablation;
      (let audit_flag =
         Arg.(value & flag
              & info [ "audit" ]
                  ~doc:"Trace every run and replay it through the invariant \
                        checker; violations fail the process.")
       in
       Cmd.v
         (Cmd.info "chaos"
            ~doc:
              "Fault injection: churn x partitions x loss bursts; honest \
               nodes must never be exposed")
         Term.(const run_chaos $ scale_term $ audit_flag));
      (let trace_arg =
         Cmdliner.Arg.(
           required
           & opt (some file) None
           & info [ "trace" ] ~doc:"CSV transaction trace to replay.")
       in
       let audit_flag =
         Arg.(value & flag
              & info [ "audit" ]
                  ~doc:"Trace the run and replay it through the invariant \
                        checker; violations fail the process.")
       in
       Cmd.v
         (Cmd.info "replay" ~doc:"Replay a transaction trace (CSV: time,fee,size)")
         Term.(const run_replay $ scale_term $ audit_flag $ trace_arg));
      (let scenario_arg =
         Arg.(
           value
           & pos 0 string "baseline"
           & info [] ~docv:"SCENARIO"
               ~doc:"Scenario to trace: baseline, chaos or adversary.")
       in
       let out_arg =
         Arg.(
           value
           & opt (some string) None
           & info [ "out"; "o" ] ~docv:"FILE"
               ~doc:"Write the event trace as JSONL to $(docv).")
       in
       let audit_flag =
         Arg.(value & flag
              & info [ "audit" ]
                  ~doc:"Exit non-zero if the invariant audit finds violations.")
       in
       let capacity_arg =
         Arg.(
           value
           & opt (some int) None
           & info [ "capacity" ] ~docv:"EVENTS"
               ~doc:"Event ring capacity (default 1048576). It bounds only \
                     the $(b,--out) export, which keeps the newest \
                     $(docv) events; aggregates and the audit see every \
                     event.")
       in
       Cmd.v
         (Cmd.info "trace"
            ~doc:
              "Run one fully traced scenario, print event/flow summaries, \
               audit the trace, and optionally export it as JSONL")
         Term.(
           const run_trace $ scale_term $ scenario_arg $ out_arg $ audit_flag
           $ capacity_arg));
      (let cases_arg =
         Arg.(
           value & opt int 50
           & info [ "n"; "cases" ] ~docv:"N"
               ~doc:"Number of generated scenarios.")
       in
       let seed_arg =
         Arg.(
           value & opt int 1
           & info [ "seed" ] ~docv:"SEED"
               ~doc:"Campaign seed; every case derives from (seed, index).")
       in
       let mutate_arg =
         let names =
           String.concat ", " (List.map fst Lo_check.Harness.mutations)
         in
         Arg.(
           value
           & opt (some (enum
                          (List.map
                             (fun (name, _) -> (name, name))
                             Lo_check.Harness.mutations)))
               None
           & info [ "mutate" ] ~docv:"RULE"
               ~doc:
                 (Printf.sprintf
                    "Sensitivity mode: hide a known deviation (%s) on one \
                     node and demand the oracles catch it."
                    names))
       in
       let replay_arg =
         Arg.(
           value
           & opt (some file) None
           & info [ "replay" ] ~docv:"FILE"
               ~doc:
                 "Re-run one repro file byte-identically instead of \
                  generating a campaign.")
       in
       let repro_dir_arg =
         Arg.(
           value & opt dir "."
           & info [ "repro-dir" ] ~docv:"DIR"
               ~doc:"Where shrunk repro files are written.")
       in
       let shrink_budget_arg =
         Arg.(
           value
           & opt (some int) None
           & info [ "shrink-budget" ] ~docv:"RUNS"
               ~doc:"Max re-runs the shrinker may spend per failure \
                     (default 40).")
       in
       let jobs_arg =
         Arg.(
           value
           & opt (some int) None
           & info [ "jobs"; "j" ] ~docv:"J"
               ~doc:"Domains to fan cases across (default: LO_JOBS or \
                     core count).")
       in
       Cmd.v
         (Cmd.info "fuzz"
            ~doc:
              "Conformance fuzzing: random swarm scenarios judged against \
               the oracle stack, with automatic shrinking to minimal \
               repros")
         Term.(
           const run_fuzz $ cases_arg $ seed_arg $ mutate_arg $ replay_arg
           $ repro_dir_arg $ shrink_budget_arg $ jobs_arg));
      (let id_arg =
         Arg.(
           required
           & opt (some int) None
           & info [ "id" ] ~docv:"ID" ~doc:"This node's index in [0, n).")
       in
       let n_arg =
         Arg.(
           value & opt int 4
           & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Cluster size.")
       in
       let port_arg =
         Arg.(
           value & opt int Lo_live.Host.default_base_port
           & info [ "base-port" ] ~docv:"PORT"
               ~doc:"Node $(i) listens on 127.0.0.1:(PORT + i).")
       in
       let seed_arg =
         Arg.(
           value & opt int 1
           & info [ "seed" ] ~docv:"SEED"
               ~doc:
                 "Deployment seed: identities, overlay and workload are \
                  all derived from it, so every process agrees without \
                  coordination.")
       in
       let tps_arg =
         Arg.(
           value & opt float 20.
           & info [ "tps" ] ~docv:"RATE"
               ~doc:"Cluster-wide submission rate (txs per second).")
       in
       let duration_arg =
         Arg.(
           value & opt float 10.
           & info [ "duration" ] ~docv:"SECONDS"
               ~doc:"Workload seconds after the shared epoch.")
       in
       let epoch_arg =
         Arg.(
           value
           & opt (some float) None
           & info [ "epoch" ] ~docv:"UNIX_TIME"
               ~doc:
                 "Absolute wall-clock protocol time zero (default: the \
                  next whole second + 1, which independently launched \
                  peers agree on).")
       in
       let out_arg =
         Arg.(
           value
           & opt (some string) None
           & info [ "out"; "o" ] ~docv:"FILE"
               ~doc:"Write this node's event trace as JSONL to $(docv).")
       in
       Cmd.v
         (Cmd.info "serve"
            ~doc:
              "Run one live LO node over localhost TCP (the non-simulated \
               transport backend)")
         Term.(
           const run_serve $ id_arg $ n_arg $ port_arg $ seed_arg $ tps_arg
           $ duration_arg $ epoch_arg $ out_arg));
      (let n_arg =
         Arg.(
           value & opt int 16
           & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Cluster size.")
       in
       let tps_arg =
         Arg.(
           value & opt float 200.
           & info [ "tps" ] ~docv:"RATE"
               ~doc:"Cluster-wide submission rate (txs per second).")
       in
       let duration_arg =
         Arg.(
           value & opt float 10.
           & info [ "duration" ] ~docv:"SECONDS"
               ~doc:"Workload seconds after the shared epoch.")
       in
       let seed_arg =
         Arg.(
           value & opt int 1
           & info [ "seed" ] ~docv:"SEED" ~doc:"Deployment seed.")
       in
       let port_arg =
         Arg.(
           value & opt int Lo_live.Host.default_base_port
           & info [ "base-port" ] ~docv:"PORT"
               ~doc:"Node $(i) listens on 127.0.0.1:(PORT + i).")
       in
       let out_dir_arg =
         Arg.(
           value
           & opt (some string) None
           & info [ "out-dir" ] ~docv:"DIR"
               ~doc:
                 "Where per-node and merged JSONL traces land (default: a \
                  fresh directory under the system temp dir).")
       in
       let chaos_arg =
         Arg.(
           value
           & opt (some ~none:"off" string) None
           & info [ "chaos" ] ~docv:"SPEC"
               ~doc:
                 "Seeded chaos: SIGKILL and respawn nodes mid-run and \
                  inject socket-level frame faults. $(docv) is \
                  \"key=value,...\" over the defaults \
                  (kills=3,down=1.5 plus mild link faults); keys: \
                  kills, rate (Poisson kills/s instead of exact \
                  kills), down, drop, dup, delay, dmax, trunc, \
                  garble. The empty string takes every default.")
       in
       let signer_arg =
         Arg.(
           value
           & opt (enum [ ("simulation", `Simulation); ("schnorr", `Schnorr) ])
               `Simulation
           & info [ "signer" ] ~docv:"SCHEME"
               ~doc:
                 "Signature scheme every node signs and verifies under: \
                  $(b,simulation) (HMAC stand-in, the default) or \
                  $(b,schnorr) (real Schnorr over secp256k1).")
       in
       Cmd.v
         (Cmd.info "cluster"
            ~doc:
              "Fork a full localhost cluster of live nodes — optionally \
               under seeded chaos (kill/respawn plus socket faults) — \
               merge the per-incarnation traces, audit the merged \
               stream, and fail on any violation or honest exposure")
         Term.(
           const run_cluster $ n_arg $ tps_arg $ duration_arg $ seed_arg
           $ port_arg $ out_dir_arg $ chaos_arg $ signer_arg));
      cmd "selfcheck" "Verify the crypto and sketch substrates against known vectors" run_selfcheck;
      cmd "all" "Run the entire evaluation" run_all;
    ]
  in
  exit (Cmd.eval (Cmd.group ~default info cmds))
