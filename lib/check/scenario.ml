module Rng = Lo_net.Rng

type adversary = { node : int; kind : string }

type t = {
  seed : int;
  nodes : int;
  rate : float;
  duration : float;
  drain : float;
  loss : float;
  block_interval : float;
  rotate_period : float;
  timeout : float;
  retries : int;
  backoff : float;
  jitter : float;
  reconcile_period : float;
  digest_period : float;
  adversaries : adversary list;
  churn : float;
  partition : float;
  burst : float;
  spikes : bool;
  degrades : bool;
  mutation : string;
}

(* Quantise to 3 decimals so printing with %.3f and re-parsing is the
   identity on every float the generator (or the shrinker) produces. *)
let q3 x = Float.of_int (Float.to_int ((x *. 1000.) +. 0.5)) /. 1000.

let adversary_kinds =
  [|
    "silent-censor";
    "tx-censor";
    "block-injector";
    "block-reorderer";
    "blockspace-censor";
    "equivocator";
  |]

let generate ~seed ~index =
  let rng = Rng.create ((seed * 1_000_003) + (index * 7919) + 17) in
  let nodes = 8 + Rng.int rng 13 in
  let rate = q3 (2. +. Rng.float rng 4.) in
  let duration = q3 (5. +. Rng.float rng 4.) in
  let loss = q3 (Rng.float rng 0.03) in
  let block_interval =
    if Rng.int rng 4 = 0 then 0. else q3 (3. +. Rng.float rng 2.)
  in
  let rotate_period =
    if Rng.int rng 10 < 7 then 0. else q3 (4. +. Rng.float rng 4.)
  in
  let timeout = q3 (0.4 +. Rng.float rng 0.4) in
  let backoff = q3 (1.5 +. Rng.float rng 0.5) in
  let jitter = q3 (Rng.float rng 0.3) in
  let reconcile_period = q3 (0.8 +. Rng.float rng 0.4) in
  let digest_period = q3 (1.5 +. Rng.float rng 1.0) in
  let n_adv =
    match Rng.int rng 100 with x when x < 35 -> 0 | x when x < 75 -> 1 | _ -> 2
  in
  let victims =
    Rng.sample_without_replacement rng n_adv (List.init nodes Fun.id)
    |> List.sort compare
  in
  let adversaries =
    List.map
      (fun node -> { node; kind = Rng.pick rng adversary_kinds })
      victims
  in
  let churn = if Rng.bool rng then 0. else q3 (0.05 +. Rng.float rng 0.15) in
  let partition = if Rng.bool rng then 0. else q3 (1.0 +. Rng.float rng 1.0) in
  let burst = if Rng.bool rng then 0. else q3 (0.1 +. Rng.float rng 0.2) in
  let spikes = Rng.int rng 3 = 0 in
  let degrades = Rng.int rng 3 = 0 in
  {
    seed = (seed * 9176) + index + 1;
    nodes;
    rate;
    duration;
    drain = 28.;
    loss;
    block_interval;
    rotate_period;
    timeout;
    retries = 2;
    backoff;
    jitter;
    reconcile_period;
    digest_period;
    adversaries;
    churn;
    partition;
    burst;
    spikes;
    degrades;
    mutation = "";
  }

let describe t =
  let b = Buffer.create 96 in
  Buffer.add_string b
    (Printf.sprintf "n=%d rate=%.1f dur=%.1f loss=%.3f" t.nodes t.rate
       t.duration t.loss);
  if t.block_interval > 0. then
    Buffer.add_string b (Printf.sprintf " blocks=%.1fs" t.block_interval);
  if t.rotate_period > 0. then
    Buffer.add_string b (Printf.sprintf " rotate=%.1fs" t.rotate_period);
  List.iter
    (fun a -> Buffer.add_string b (Printf.sprintf " adv[%d]=%s" a.node a.kind))
    t.adversaries;
  if t.churn > 0. then Buffer.add_string b (Printf.sprintf " churn=%.2f" t.churn);
  if t.partition > 0. then
    Buffer.add_string b (Printf.sprintf " partition=%.1fs" t.partition);
  if t.burst > 0. then Buffer.add_string b (Printf.sprintf " burst=%.2f" t.burst);
  if t.spikes then Buffer.add_string b " spikes";
  if t.degrades then Buffer.add_string b " degrades";
  if t.mutation <> "" then
    Buffer.add_string b (Printf.sprintf " MUTATION=%s" t.mutation);
  Buffer.contents b

(* {2 JSON repro format}

   Flat object, fixed key order, floats as %.3f — deterministic output
   and an exact round-trip. The repo carries no JSON dependency. *)

let to_json_string t =
  let b = Buffer.create 256 in
  let fld name f = Buffer.add_string b (Printf.sprintf ",\"%s\":%s" name f) in
  Buffer.add_string b "{\"v\":1";
  fld "seed" (string_of_int t.seed);
  fld "nodes" (string_of_int t.nodes);
  fld "rate" (Printf.sprintf "%.3f" t.rate);
  fld "duration" (Printf.sprintf "%.3f" t.duration);
  fld "drain" (Printf.sprintf "%.3f" t.drain);
  fld "loss" (Printf.sprintf "%.3f" t.loss);
  fld "block_interval" (Printf.sprintf "%.3f" t.block_interval);
  fld "rotate_period" (Printf.sprintf "%.3f" t.rotate_period);
  fld "timeout" (Printf.sprintf "%.3f" t.timeout);
  fld "retries" (string_of_int t.retries);
  fld "backoff" (Printf.sprintf "%.3f" t.backoff);
  fld "jitter" (Printf.sprintf "%.3f" t.jitter);
  fld "reconcile_period" (Printf.sprintf "%.3f" t.reconcile_period);
  fld "digest_period" (Printf.sprintf "%.3f" t.digest_period);
  fld "adversaries"
    ("["
    ^ String.concat ","
        (List.map
           (fun a -> Printf.sprintf "\"%d:%s\"" a.node a.kind)
           t.adversaries)
    ^ "]");
  fld "churn" (Printf.sprintf "%.3f" t.churn);
  fld "partition" (Printf.sprintf "%.3f" t.partition);
  fld "burst" (Printf.sprintf "%.3f" t.burst);
  fld "spikes" (string_of_bool t.spikes);
  fld "degrades" (string_of_bool t.degrades);
  fld "mutation" (Printf.sprintf "%S" t.mutation);
  Buffer.add_char b '}';
  Buffer.contents b

(* Read back with {!Lo_obs.Jsonl}'s flat-object reader: every value
   here is a number, a bool, a plain quoted string or an array of plain
   quoted strings, none holding a comma or a quote. *)
let of_json_string s =
  let module J = Lo_obs.Jsonl in
  match
    let fields = J.split_fields (String.trim s) in
    let get name = J.field fields name in
    let int name = J.as_int (get name) in
    let flt name = J.as_float (get name) in
    let boolean name = J.as_bool (get name) in
    if int "v" <> 1 then Error "unsupported repro version"
    else
      let adversaries =
        match String.trim (J.strip_brackets (get "adversaries")) with
        | "" -> []
        | items ->
            List.map
              (fun item ->
                let item = J.as_string (String.trim item) in
                match String.index_opt item ':' with
                | Some i ->
                    {
                      node = J.as_int (String.sub item 0 i);
                      kind = String.sub item (i + 1) (String.length item - i - 1);
                    }
                | None -> raise (J.Fail "adversary: expected idx:kind"))
              (String.split_on_char ',' items)
      in
      Ok
        {
          seed = int "seed";
          nodes = int "nodes";
          rate = flt "rate";
          duration = flt "duration";
          drain = flt "drain";
          loss = flt "loss";
          block_interval = flt "block_interval";
          rotate_period = flt "rotate_period";
          timeout = flt "timeout";
          retries = int "retries";
          backoff = flt "backoff";
          jitter = flt "jitter";
          reconcile_period = flt "reconcile_period";
          digest_period = flt "digest_period";
          adversaries;
          churn = flt "churn";
          partition = flt "partition";
          burst = flt "burst";
          spikes = boolean "spikes";
          degrades = boolean "degrades";
          mutation = J.as_string (get "mutation");
        }
  with
  | result -> result
  | exception J.Fail msg -> Error ("bad repro JSON: " ^ msg)

(* Shrinking: strictly simpler scenarios in the order we want the
   greedy search to try them (ISSUE order — faults, adversaries, size,
   workload coarseness). Each candidate changes exactly one thing. *)
let shrink_candidates t =
  let faults =
    List.concat
      [
        (if t.churn > 0. then [ { t with churn = 0. } ] else []);
        (if t.partition > 0. then [ { t with partition = 0. } ] else []);
        (if t.burst > 0. then [ { t with burst = 0. } ] else []);
        (if t.spikes then [ { t with spikes = false } ] else []);
        (if t.degrades then [ { t with degrades = false } ] else []);
        (if t.loss > 0. then [ { t with loss = 0. } ] else []);
      ]
  in
  let adversaries =
    List.mapi
      (fun i _ ->
        { t with adversaries = List.filteri (fun j _ -> j <> i) t.adversaries })
      t.adversaries
  in
  let size =
    let smaller_n =
      let n' = max 6 (t.nodes / 2) in
      if n' < t.nodes then
        [
          {
            t with
            nodes = n';
            adversaries = List.filter (fun a -> a.node < n') t.adversaries;
          };
        ]
      else []
    in
    let shorter =
      let d' = q3 (Float.max 3. (t.duration /. 2.)) in
      if d' < t.duration then [ { t with duration = d' } ] else []
    in
    smaller_n @ shorter
  in
  let workload =
    List.concat
      [
        (let r' = q3 (Float.max 1. (t.rate /. 2.)) in
         if r' < t.rate then [ { t with rate = r' } ] else []);
        (if t.rotate_period > 0. then [ { t with rotate_period = 0. } ]
         else []);
        (* Only drop block production when no block-stage actor needs
           it: shrinking must preserve the scenario's ability to
           express the failure, and block adversaries/mutations cannot
           deviate without blocks. *)
        (if
           t.block_interval > 0.
           && (not
                 (List.exists
                    (fun a ->
                      List.mem a.kind
                        [
                          "block-injector";
                          "block-reorderer";
                          "blockspace-censor";
                        ])
                    t.adversaries))
           && t.mutation = ""
         then [ { t with block_interval = 0. } ]
         else []);
      ]
  in
  faults @ adversaries @ size @ workload
