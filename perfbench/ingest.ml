(* Workload ingest-schnorr: the batched admission tier under real
   Schnorr. Set-up signs a corpus of distinct transactions; the measured
   window feeds their wire bytes through [Tx.of_string] and
   [Mempool.ingest_batch] in batches of 32, committing each batch with
   [Commitment.Log.append], in passes over the corpus, each pass into a
   fresh mempool and log. *)

open Lo_core
module Signer = Lo_crypto.Signer
module Rng = Lo_net.Rng
module Sample = Lo_sim.Metrics.Stats

let batch_size = 32
let corpus_batches = 25
let corpus_size = batch_size * corpus_batches

(* Every batch is fed at least this many times, so a window feeds at
   least 100 batches and each batch's median feed is a median of four
   or more. *)
let min_passes = 4

(* Every transaction is signed by one client key, derived from the seed
   as [Lo_live.Host] and [Lo_sim.Scenario.build_lo] derive theirs: the
   repository's traffic has that shape. Set-up derives the key, then
   signs the corpus in [chunks] equal pieces, each timed and rescaled to
   reference seconds ([Stats.speed]). The set-up time is the key's plus
   [chunks] times the median piece, so one piece hit by a burst of other
   load does not move it. *)
let chunks = 8

type corpus = { wires : string array; setup_s : float; sign_s : float }

let prepare ~seed =
  let rng = Rng.create ((seed * 7919) + 11) in
  let t0 = Stats.wall () in
  let client = Signer.make Signer.schnorr ~seed:(Printf.sprintf "client-%d" seed) in
  let key_s = (Stats.wall () -. t0) *. Stats.speed () in
  let per_chunk = corpus_size / chunks in
  let wires = Array.make corpus_size "" in
  let sign_s = ref 0. in
  let pieces =
    Array.init chunks (fun c ->
        let t0 = Stats.wall () in
        for i = c * per_chunk to ((c + 1) * per_chunk) - 1 do
          let payload =
            String.init (16 + Rng.int rng 145) (fun _ -> Char.chr (Rng.int rng 256))
          in
          wires.(i) <-
            Tx.to_string
              (Tx.create ~signer:client ~fee:(Rng.int rng 1000)
                 ~created_at:(float_of_int i *. 1e-3)
                 ~payload)
        done;
        let dt = Stats.wall () -. t0 in
        sign_s := !sign_s +. dt;
        dt *. Stats.speed ())
  in
  {
    wires;
    setup_s = key_s +. (float_of_int chunks *. Stats.median pieces);
    sign_s = !sign_s;
  }

(* One feed of a batch, in reference seconds. *)
type feed = {
  ms : float;  (* decode to return *)
  verdict_s : float;  (* ingest call to commit *)
  commit_s : float;  (* decode to commit, for each of its txs *)
  ids : int;  (* short ids it committed *)
}

(* Batch timings are in reference seconds, except where [probes] spans
   time the layers in plain wall seconds. *)
type window = {
  raw_wall_s : float;
  wall_s : float;  (* the batches' own time: decode to return *)
  cpu_s : float;
  fed : int;  (* valid transactions offered *)
  admitted : int;
  committed : int;  (* short ids committed *)
  batches : int;  (* batches fed, over every pass *)
  median_feeds : feed array;
      (* per corpus batch, its feed of median [ms]: the latency
         percentiles are taken over these, so a feed the calibration
         did not fully rescale (a burst of other load between batch and
         kernel) cannot reach the tail *)
  correct : bool;
}

(* Optional spans around the three layers the window calls into. *)
type probes = {
  spans : Spans.t;
  decode : Spans.layer;
  ingest : Spans.layer;
  append : Spans.layer;
}

let probes () =
  let spans = Spans.create () in
  {
    spans;
    decode = Spans.layer spans "codec.tx_decode";
    ingest = Spans.layer spans "core.mempool.ingest_batch";
    append = Spans.layer spans "core.commitment.append";
  }

let within probes pick f =
  match probes with None -> f () | Some p -> Spans.span p.spans (pick p) f

(* Passes over the corpus, each into a fresh mempool and log, until at
   least [seconds] have elapsed and every batch was fed [min_passes]
   times. Each feed of a batch is timed on its own and rescaled by the
   calibration kernel run right after it. *)
let run_window ?probes ~seed ~seconds corpus =
  let node = Signer.make Signer.schnorr ~seed:(Printf.sprintf "ingest-node-%d" seed) in
  let feeds = Array.make corpus_batches [] in
  let fed = ref 0 and admitted = ref 0 and committed = ref 0 and batches = ref 0 in
  let wall_s = ref 0. and cpu_s = ref 0. and correct = ref true in
  Gc.full_major ();
  let t0 = Stats.wall () in
  let more () =
    !batches < min_passes * corpus_batches || Stats.wall () -. t0 < seconds
  in
  while more () do
    let mempool = Mempool.create ~initial_capacity:corpus_size () in
    let log = Commitment.Log.create ~signer:node () in
    let pass_fed = ref 0 in
    let b = ref 0 in
    while !b < corpus_batches && more () do
      let base = !b * batch_size in
      let c0 = Stats.cpu () and start = Stats.wall () in
      let txs =
        List.init batch_size (fun j ->
            within probes
              (fun p -> p.decode)
              (fun () -> Tx.of_string corpus.wires.(base + j)))
      in
      let called = Stats.wall () in
      let commit_at = ref called in
      let r =
        within probes
          (fun p -> p.ingest)
          (fun () ->
            Mempool.ingest_batch ~scheme:Signer.schnorr
              ~known:(Commitment.Log.contains log)
              ~commit:(fun ids ->
                commit_at := Stats.wall ();
                within probes
                  (fun p -> p.append)
                  (fun () -> ignore (Commitment.Log.append log ~source:None ~ids)))
              ~received_at:0. ~from_peer:None mempool txs)
      in
      let stop = Stats.wall () and c1 = Stats.cpu () in
      let k = Stats.speed () in
      if r.Mempool.invalid <> [] || r.duplicates > 0 then begin
        Stats.log "ingest-schnorr: batch %d: %d invalid, %d duplicates" !b
          (List.length r.invalid) r.duplicates;
        correct := false
      end;
      wall_s := !wall_s +. ((stop -. start) *. k);
      cpu_s := !cpu_s +. ((c1 -. c0) *. k);
      feeds.(!b) <-
        {
          ms = (stop -. start) *. k *. 1e3;
          verdict_s = (!commit_at -. called) *. k;
          commit_s = (!commit_at -. start) *. k;
          ids = List.length r.committed;
        }
        :: feeds.(!b);
      fed := !fed + batch_size;
      pass_fed := !pass_fed + batch_size;
      admitted := !admitted + List.length r.accepted;
      committed := !committed + List.length r.committed;
      incr batches;
      incr b
    done;
    let size = Mempool.size mempool and counter = Commitment.Log.counter log in
    if size <> !pass_fed || counter <> !pass_fed then begin
      Stats.log "ingest-schnorr: fed %d, mempool holds %d, log counter %d" !pass_fed
        size counter;
      correct := false
    end
  done;
  {
    raw_wall_s = Stats.wall () -. t0;
    wall_s = !wall_s;
    cpu_s = !cpu_s;
    fed = !fed;
    admitted = !admitted;
    committed = !committed;
    batches = !batches;
    median_feeds =
      Array.map
        (fun fs ->
          let sorted = List.sort (fun a b -> Float.compare a.ms b.ms) fs in
          List.nth sorted ((List.length sorted - 1) / 2))
        feeds;
    correct = !correct;
  }

(* [p] percentile of [value] over the corpus batches' median feeds, each
   counted [weight] times. *)
let percentile ?(weight = fun _ -> 1) w p value =
  let s = Sample.create () in
  Array.iter
    (fun f ->
      for _ = 1 to weight f do
        Sample.add s (value f)
      done)
    w.median_feeds;
  Sample.percentile s p

let end_to_end ~seed ~seconds =
  let corpus = prepare ~seed in
  let w = run_window ~seed ~seconds corpus in
  (* one pass over the corpus *)
  let per_pass x = x *. float_of_int corpus_batches /. float_of_int w.batches in
  let weight f = f.ids in
  let wire_bytes = Array.fold_left (fun acc s -> acc + String.length s) 0 corpus.wires in
  Stats.log
    "ingest-schnorr: seed %d, %d batches, %d txs in %.2f s; %.2f reference s of batches"
    seed w.batches w.fed w.raw_wall_s w.wall_s;
  let metrics =
    Stats.
      [
        m "setup_s" "s" corpus.setup_s;
        m "wall_s" "s" (per_pass w.wall_s);
        m "cpu_s" "s" (per_pass w.cpu_s);
        m "ingest_tx_per_s" "1/s" (float_of_int w.admitted /. w.wall_s);
        m "admit_p50_ms" "ms" (percentile w 0.5 (fun f -> f.ms));
        m "admit_p90_ms" "ms" (percentile w 0.9 (fun f -> f.ms));
        m "commit_all_p50_s" "s" (percentile ~weight w 0.5 (fun f -> f.commit_s));
        m "commit_all_p99_s" "s" (percentile ~weight w 0.99 (fun f -> f.commit_s));
        m "committed_tx_per_s" "1/s" (float_of_int w.committed /. w.wall_s);
        m "failed_ratio" "ratio"
          (failed_ratio ~attempted:w.fed ~failed:(w.fed - w.admitted));
        m "wire_bytes_per_tx" "B" (float_of_int wire_bytes /. float_of_int corpus_size);
        m "detect_p50_s" "s" (percentile w 0.5 (fun f -> f.verdict_s));
      ]
  in
  (w.correct, w.fed, w.fed - w.admitted, metrics)

(* [Signer.verify_many] alone over one pass of the corpus, batch by
   batch: the crypto share of admission, timed apart from the pipeline. *)
let verify_many_s corpus =
  let total = ref 0. and ok = ref true in
  for b = 0 to corpus_batches - 1 do
    let base = b * batch_size in
    let triples =
      Array.init batch_size (fun j ->
          let tx = Tx.of_string corpus.wires.(base + j) in
          (tx.Tx.origin, Tx.unsigned_bytes tx, tx.Tx.signature))
    in
    let t0 = Stats.wall () in
    let bad = Signer.verify_many Signer.schnorr triples in
    total := !total +. (Stats.wall () -. t0);
    if bad <> [] then ok := false
  done;
  (!total, !ok)

let per_layer ~seed ~seconds =
  let corpus = prepare ~seed in
  let p = probes () in
  let w = run_window ~probes:p ~seed ~seconds corpus in
  let verify_s, verify_ok = verify_many_s corpus in
  let metrics =
    Stats.
      [
        m "codec.tx_decode_s" "s" p.decode.self_s;
        m "codec.tx_decode.calls" "count" (float_of_int p.decode.calls);
        m "core.mempool.ingest_batch.self_s" "s" p.ingest.self_s;
        m "core.mempool.ingest_batch.calls" "count" (float_of_int p.ingest.calls);
        m "core.commitment.append_s" "s" p.append.self_s;
        m "core.commitment.calls" "count" (float_of_int p.append.calls);
        m "crypto.verify_many_s" "s" verify_s;
        m "crypto.sign_s" "s" corpus.sign_s;
        m "trace.wall_s" "s" w.raw_wall_s;
      ]
  in
  (w.correct && verify_ok, w.fed, w.fed - w.admitted, metrics)
