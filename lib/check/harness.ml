module Rng = Lo_net.Rng
module Fault_plan = Lo_net.Fault_plan
module Trace = Lo_obs.Trace
module Runner = Lo_sim.Runner
open Lo_core

type outcome = {
  scenario : Scenario.t;
  verdict : Oracle.verdict;
  events : int;
  mutant : int option;
  mutant_observable : int;
}

let failed o = o.verdict.Oracle.failures <> []

let behavior_of_kind kind =
  match kind with
  | "silent-censor" -> Adversary.Silent_censor
  | "tx-censor" -> Adversary.Tx_censor (fun tx -> tx.Tx.fee mod 2 = 0)
  | "block-injector" -> Adversary.Block_injector
  | "block-reorderer" -> Adversary.Block_reorderer
  | "blockspace-censor" ->
      Adversary.Blockspace_censor (fun tx -> tx.Tx.fee mod 2 = 0)
  | "equivocator" -> Adversary.Equivocator
  | k -> invalid_arg ("unknown adversary kind: " ^ k)

let mutations =
  [
    ("shuffle-skip", "skip the canonical intra-bundle shuffle (fee order)");
    ("inject", "smuggle uncommitted transactions into block bundles");
    ("omit", "silently censor matching transactions from blocks");
    ("silent", "stop answering protocol requests");
  ]

let mutation_behavior = function
  | "shuffle-skip" -> Adversary.Block_reorderer
  | "inject" -> Adversary.Block_injector
  | "omit" -> Adversary.Blockspace_censor (fun tx -> tx.Tx.fee mod 2 = 0)
  | "silent" -> Adversary.Silent_censor
  | m -> invalid_arg ("unknown mutation: " ^ m)

let mutation_needs_blocks = function
  | "shuffle-skip" | "inject" | "omit" -> true
  | _ -> false

let with_mutation (s : Scenario.t) name =
  ignore (mutation_behavior name);
  let block_interval =
    if mutation_needs_blocks name && s.Scenario.block_interval = 0. then 4.0
    else s.Scenario.block_interval
  in
  { s with Scenario.mutation = name; block_interval }

(* The hidden mutant runs on the highest-index node that is not already
   a configured adversary — deterministic, and topology-safe because it
   is still counted malicious when edges are laid. *)
let mutant_node (s : Scenario.t) =
  if s.Scenario.mutation = "" then None
  else
    let taken = List.map (fun a -> a.Scenario.node) s.Scenario.adversaries in
    let rec pick i = if List.mem i taken then pick (i - 1) else i in
    Some (pick (s.Scenario.nodes - 1))

let execute (s : Scenario.t) =
  let open Scenario in
  let n = s.nodes in
  let mutant = mutant_node s in
  let assigned = Array.make n Adversary.Honest in
  List.iter
    (fun a -> assigned.(a.node) <- behavior_of_kind a.kind)
    s.adversaries;
  (match mutant with
  | Some m -> assigned.(m) <- mutation_behavior s.mutation
  | None -> ());
  let malicious = Array.map (fun b -> b <> Adversary.Honest) assigned in
  let adversaries = List.map (fun a -> (a.node, a.kind)) s.adversaries in
  let trace = Trace.create ~capacity:1 () in
  let watch = Oracle.watch ~adversaries trace in
  let config c =
    {
      c with
      Node.request_timeout = s.timeout;
      max_retries = s.retries;
      retry_backoff = s.backoff;
      retry_jitter = s.jitter;
      reconcile_period = s.reconcile_period;
      digest_share_period = s.digest_period;
    }
  in
  let plan =
    let rng = Rng.create ((s.seed * 7919) + 101) in
    Fault_plan.merge
      [
        (if s.churn > 0. then
           Fault_plan.churn ~rng ~n ~rate:s.churn ~mean_down:1.5
             ~until:s.duration
         else []);
        (if s.partition > 0. then
           Fault_plan.partitions ~rng ~n ~period:2.5 ~duration:s.partition
             ~until:s.duration
         else []);
        (if s.burst > 0. then
           Fault_plan.loss_bursts ~rng ~rate:s.burst ~period:3.0 ~duration:1.0
             ~until:s.duration
         else []);
        (if s.spikes then
           Fault_plan.latency_spikes ~rng ~n ~k:(max 1 (n / 8)) ~extra:0.25
             ~period:4.0 ~duration:2.0 ~until:s.duration
         else []);
        (if s.degrades then
           Fault_plan.link_degrades ~rng ~n ~loss:0.5 ~extra_delay:0.2
             ~period:3.0 ~duration:2.0 ~until:s.duration
         else []);
      ]
  in
  let scale =
    {
      Runner.nodes = n;
      reps = 1;
      rate = s.rate;
      duration = s.duration;
      seed = s.seed;
    }
  in
  (* Uniform leader election rarely hands a specific miner a slot while
     the mempool is still live, so block-stage deviations would fire in
     only a sliver of scenarios. Real chains give every miner a turn
     eventually; we compress that into the window by scheduling each
     block-stage actor (configured or mutant) one guaranteed
     mid-workload leadership slot. Deterministic, hence replay-safe. *)
  let forced_leads =
    if s.block_interval > 0. then
      List.filter_map
        (fun a ->
          match behavior_of_kind a.kind with
          | Adversary.Block_injector | Adversary.Block_reorderer
          | Adversary.Blockspace_censor _ ->
              Some a.node
          | _ -> None)
        s.adversaries
      @
      match mutant with
      | Some m when mutation_needs_blocks s.mutation -> [ m ]
      | _ -> []
    else []
  in
  let after_inject (run : Runner.run) =
    let d = run.Runner.deployment in
    List.iteri
      (fun i idx ->
        let at = (0.4 +. (0.15 *. float_of_int i)) *. s.duration in
        Lo_net.Network.schedule_at d.Lo_sim.Scenario.net ~at (fun _ ->
            ignore
              (Node.build_block d.Lo_sim.Scenario.nodes.(idx)
                 ~policy:Policy.Lo_fifo)))
      forced_leads
  in
  let run =
    Runner.run_lo ~config ~after_inject
      ~behaviors:(fun i -> assigned.(i))
      ~malicious
      ?loss_rate:(if s.loss > 0. then Some s.loss else None)
      ?faults:(if plan = [] then None else Some plan)
      ?rotate_period:(if s.rotate_period > 0. then Some s.rotate_period else None)
      ?blocks:
        (if s.block_interval > 0. then Some (Policy.Lo_fifo, s.block_interval)
         else None)
      ~blocks_only_honest:false ~drain:s.drain ~trace ~scale ~seed:s.seed ()
  in
  let verdict = Oracle.judge watch ~horizon:run.Runner.horizon ~run () in
  let mutant_observable =
    match mutant with
    | None -> 0
    | Some m ->
        List.length
          (Oracle.observable_deviations ~horizon:run.Runner.horizon watch
             ~node:run.Runner.deployment.Lo_sim.Scenario.nodes.(m)
             ~idx:m ())
  in
  {
    scenario = s;
    verdict;
    events = Trace.total trace;
    mutant;
    mutant_observable;
  }

let shrink ?(budget = 40) s0 =
  let runs = ref 0 in
  let fails s =
    if !runs >= budget then false
    else begin
      incr runs;
      failed (execute s)
    end
  in
  let rec go s =
    if !runs >= budget then s
    else
      match List.find_opt fails (Scenario.shrink_candidates s) with
      | Some s' -> go s'
      | None -> s
  in
  let minimal = go s0 in
  (minimal, !runs)

type case = { index : int; outcome : outcome }

let fuzz ~n ~seed ?mutation ?jobs () =
  let arm =
    match mutation with
    | None -> Fun.id
    | Some m -> fun s -> with_mutation s m
  in
  Lo_sim.Parallel.map ?jobs
    (fun index ->
      { index; outcome = execute (arm (Scenario.generate ~seed ~index)) })
    (List.init n Fun.id)

let write_repro ~path s =
  let oc = open_out path in
  output_string oc (Scenario.to_json_string s);
  output_char oc '\n';
  close_out oc

let read_repro ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> Scenario.of_json_string (String.trim contents)
