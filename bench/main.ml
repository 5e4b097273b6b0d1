(* Benchmark harness.

   Two layers, both run by default:

   1. Bechamel micro-benchmarks — one group per paper table/figure,
      timing the computational kernels behind it (sketch encode/decode
      for Fig. 10 and Sec. 6.5, commitment checks for Fig. 6, canonical
      ordering and block building for Fig. 8, message codecs for Fig. 9,
      crypto primitives underlying everything).

   2. The full simulation experiments regenerating every figure of the
      paper's evaluation (Sec. 6) at a laptop scale.

   Environment knobs:
     LO_BENCH_SCALE  — float multiplier on the experiment node count
                       (default 1.0 = 120 nodes; use 0.3 for a quick run)
     LO_BENCH_MICRO_ONLY=1 / LO_BENCH_SIM_ONLY=1 — run only one layer. *)

open Bechamel
open Toolkit
open Lo_core
module Signer = Lo_crypto.Signer

(* ----------------------------------------------------------------- *)
(* Fixtures                                                            *)
(* ----------------------------------------------------------------- *)

let scheme = Signer.simulation ()
let signer = Signer.make scheme ~seed:"bench"
let schnorr_signer = Signer.make Signer.schnorr ~seed:"bench"

module Schnorr = Lo_crypto.Schnorr

(* One [Schnorr.batch_chunk] of signatures by one key. *)
let one_key_chunk =
  let sk, pk = Schnorr.keypair_of_seed "bench-chunk" in
  Array.init Schnorr.batch_chunk (fun i ->
      let msg = Printf.sprintf "chunk-msg-%d" i in
      (pk, msg, Schnorr.sign sk msg))

let sample_tx =
  Tx.create ~signer ~fee:42 ~created_at:1.0 ~payload:(String.make 250 'x')

let sample_tx_bytes = Tx.to_string sample_tx

let mk_ids n seed =
  let rng = Lo_net.Rng.create seed in
  List.init n (fun _ -> 1 + Lo_net.Rng.int rng (Short_id.max_value - 1))

let loaded_log ids =
  let log = Commitment.Log.create ~signer () in
  List.iter (fun id -> ignore (Commitment.Log.append log ~source:None ~ids:[ id ])) ids;
  log

(* Digest pair for extension checks. *)
let digest_pair =
  let log = Commitment.Log.create ~signer () in
  ignore (Commitment.Log.append log ~source:None ~ids:(mk_ids 50 1));
  let older = Commitment.Log.current_digest log in
  ignore (Commitment.Log.append log ~source:None ~ids:(mk_ids 20 2));
  (older, Commitment.Log.current_digest log)

let sketch_pair ?(slack = 16) diff =
  let shared = mk_ids 500 3 in
  let extra = mk_ids diff 4 in
  let a = Lo_sketch.Sketch.of_list ~capacity:(diff + slack) shared in
  let b = Lo_sketch.Sketch.of_list ~capacity:(diff + slack) (shared @ extra) in
  Lo_sketch.Sketch.merge a b

let staged = Staged.stage

(* ----------------------------------------------------------------- *)
(* Micro benchmark groups (one per table/figure)                       *)
(* ----------------------------------------------------------------- *)

let crypto_group =
  (* Substrate costs paid by every experiment. *)
  [
    Test.make ~name:"sha256-256B" (staged (fun () -> Lo_crypto.Sha256.digest sample_tx_bytes));
    Test.make ~name:"hmac-sha256" (staged (fun () -> Lo_crypto.Hmac.sha256 ~key:"k" sample_tx_bytes));
    (* The simulation signer's path (every sign and verify): the pad
       compressions are derived once per key, as [Hmac.Keyed] does. *)
    Test.make ~name:"hmac-keyed-sha256"
      (staged
         (let keyed = Lo_crypto.Hmac.Keyed.create ~key:"k" in
          fun () -> Lo_crypto.Hmac.Keyed.sha256 keyed sample_tx_bytes));
    Test.make ~name:"sim-sign" (staged (fun () -> Signer.sign signer "message"));
    Test.make ~name:"schnorr-sign" (staged (fun () -> Signer.sign schnorr_signer "message"));
    Test.make ~name:"gf32-mul"
      (staged (fun () -> Lo_sketch.Gf2m.mul 0xDEADBEEF 0x12345678));
    Test.make ~name:"sha256-1KiB"
      (staged
         (let block = String.make 1024 'z' in
          fun () -> Lo_crypto.Sha256.digest block));
    (* Batch Schnorr against the one-at-a-time reference: the
       schnorr-batch-amortized-K speedups in BENCH_results.json are
       (K x schnorr-verify) / schnorr-batch-verify-K. The one-key rows
       (-16, -64) time the warm-cache path: the key's comb is built on
       the first run and taken from Schnorr's per-domain comb cache
       after that, so its build cost is the secp256k1-comb-build row,
       paid once per key (per eviction), not per batch. *)
    Test.make ~name:"schnorr-verify"
      (staged
         (let msg = "message" in
          let signature = Signer.sign schnorr_signer msg in
          let id = Signer.id schnorr_signer in
          fun () -> Signer.verify Signer.schnorr ~id ~msg ~signature));
    Test.make ~name:"schnorr-batch-verify-16"
      (staged
         (let sigs =
            Array.init 16 (fun i ->
                let msg = Printf.sprintf "batch-msg-%d" i in
                (Signer.id schnorr_signer, msg, Signer.sign schnorr_signer msg))
          in
          fun () -> Signer.verify_many Signer.schnorr sigs));
    (* Sixteen signers, one signature each: every key stays below
       Schnorr.comb_min_uses, so this is the wNAF side of the comb
       threshold that the one-key rows above sit on the other side of. *)
    Test.make ~name:"schnorr-batch-verify-16-distinct"
      (staged
         (let sigs =
            Array.init 16 (fun i ->
                let signer =
                  Signer.make Signer.schnorr
                    ~seed:(Printf.sprintf "bench-distinct-%d" i)
                in
                let msg = Printf.sprintf "batch-msg-%d" i in
                (Signer.id signer, msg, Signer.sign signer msg))
          in
          fun () -> Signer.verify_many Signer.schnorr sigs));
    Test.make ~name:"secp256k1-comb-build"
      (staged
         (let pt = Lo_crypto.Secp256k1.mul_g (Lo_crypto.Scalar.of_int 0xC0FFEE) in
          fun () -> Lo_crypto.Secp256k1.comb pt));
    Test.make ~name:"schnorr-batch-verify-64"
      (staged
         (let sigs =
            Array.init 64 (fun i ->
                let msg = Printf.sprintf "batch-msg-%d" i in
                (Signer.id schnorr_signer, msg, Signer.sign schnorr_signer msg))
          in
          fun () -> Signer.verify_many Signer.schnorr sigs));
    (* One chunk of one key, checked the default way (split across the
       caller and Lo_crypto.Fanout's helpers) and in one part; the
       schnorr-batch-split-32 speedup is their ratio (1.0 on a one-core
       host, which has no helpers). *)
    Test.make ~name:"schnorr-batch-verify-32"
      (staged (fun () -> Schnorr.batch_verify one_key_chunk));
    Test.make ~name:"schnorr-batch-verify-32-one-part"
      (staged (fun () -> Schnorr.batch_verify_parts ~parts:1 one_key_chunk));
  ]

let fig6_group =
  (* Detection kernels: digest verification and consistency checks. *)
  let older, newer = digest_pair in
  let light = Commitment.strip_sketch newer in
  [
    Test.make ~name:"digest-verify-full" (staged (fun () -> Commitment.verify scheme newer));
    Test.make ~name:"digest-verify-light" (staged (fun () -> Commitment.verify scheme light));
    Test.make ~name:"check-extension-sketch"
      (staged (fun () -> Commitment.check_extension ~older ~newer ()));
    Test.make ~name:"check-extension-clock"
      (staged (fun () ->
           Commitment.check_extension ~older:(Commitment.strip_sketch older)
             ~newer:light ()));
    Test.make ~name:"evidence-verify"
      (staged
         (let log_a = Commitment.Log.create ~signer () in
          let log_b = Commitment.Log.create ~signer () in
          ignore (Commitment.Log.append log_a ~source:None ~ids:[ 1 ]);
          ignore (Commitment.Log.append log_b ~source:None ~ids:[ 2 ]);
          let ev =
            Evidence.Conflicting_digests
              {
                older = Commitment.Log.current_digest log_a;
                newer = Commitment.Log.current_digest log_b;
              }
          in
          fun () -> Evidence.verify scheme ev));
  ]

(* Faithful reimplementation of the pre-optimization append path, built
   from public APIs only: per-call windowed multiplication for the
   syndrome accumulation, a fresh Writer serialization of the whole
   sketch, a string-based SHA-256 of it, a full syndrome copy for the
   snapshot, then the signed digest. The commit-append-500 /
   commit-append-500-baseline ratio in BENCH_results.json is the
   measured win of the incremental digest path. *)
module Baseline_append = struct
  module Bloom_clock = Lo_bloom.Bloom_clock
  module Gf2m = Lo_sketch.Gf2m
  module Writer = Lo_codec.Writer

  type t = {
    clock : Bloom_clock.t;
    syndromes : int array;
    cells : int list array;
    known : (int, unit) Hashtbl.t;
    mutable counter : int;
    mutable seq : int;
  }

  let create () =
    {
      clock = Bloom_clock.create ~cells:Commitment.default_clock_cells ();
      syndromes = Array.make Commitment.default_sketch_capacity 0;
      cells = Array.make Commitment.default_clock_cells [];
      known = Hashtbl.create 256;
      counter = 0;
      seq = 0;
    }

  let append t ids =
    let fresh =
      List.filter
        (fun id ->
          if Hashtbl.mem t.known id then false
          else begin
            Hashtbl.add t.known id ();
            true
          end)
        ids
    in
    match fresh with
    | [] -> ()
    | _ ->
        let n = Array.length t.syndromes in
        List.iter
          (fun id ->
            Bloom_clock.add_int t.clock id;
            let e2 = Gf2m.mul id id in
            let p = ref id in
            for i = 0 to n - 1 do
              t.syndromes.(i) <- t.syndromes.(i) lxor !p;
              if i < n - 1 then p := Gf2m.mul !p e2
            done;
            let cell =
              Bloom_clock.cell_of_int ~cells:(Array.length t.cells) id
            in
            t.cells.(cell) <- id :: t.cells.(cell))
          fresh;
        t.counter <- t.counter + List.length fresh;
        t.seq <- t.seq + 1;
        (* snapshot: serialize the whole sketch through a Writer, hash
           the contents string, copy the syndromes for the digest *)
        let w = Writer.create ~initial_size:64 () in
        Writer.u8 w 32;
        Writer.u16 w n;
        Array.iter
          (fun s ->
            for b = 3 downto 0 do
              Writer.u8 w ((s lsr (8 * b)) land 0xFF)
            done)
          t.syndromes;
        let sketch_hash = Lo_crypto.Sha256.digest (Writer.contents w) in
        ignore (Array.copy t.syndromes);
        let unsigned =
          {
            Commitment.owner = Signer.id signer;
            seq = t.seq;
            counter = t.counter;
            clock = Bloom_clock.copy t.clock;
            sketch_hash;
            sketch = None;
            signature = String.make Signer.signature_size '\000';
          }
        in
        ignore (Signer.sign signer (Commitment.signing_bytes unsigned))
end

(* One reconciliation round commits a bundle of ids, not a single one;
   16 is a typical delta at the default workload. *)
let bundle_size = 16

let fresh_bundle counter =
  incr counter;
  List.init bundle_size (fun k ->
      0x10000000 + (((!counter * bundle_size) + k) land 0xFFFFFF))

let fig7_group =
  (* Mempool-path kernels: prevalidation and commitment append. *)
  [
    Test.make ~name:"tx-decode" (staged (fun () -> Tx.of_string sample_tx_bytes));
    (* A world pool's hit path: the framing is parsed and the span
       looked up, with no id hash and no field copies. *)
    Test.make ~name:"tx-decode-pooled"
      (staged
         (let pool = Interner.Tx_pool.create () in
          let decode () =
            Interner.Tx_pool.decode pool (Lo_codec.Reader.of_string sample_tx_bytes)
          in
          ignore (decode ());
          fun () -> decode ()));
    Test.make ~name:"tx-prevalidate" (staged (fun () -> Tx.prevalidate scheme sample_tx));
    Test.make ~name:"commit-append-1"
      (staged
         (let counter = ref 0 in
          let log = Commitment.Log.create ~signer () in
          fun () ->
            incr counter;
            ignore (Commitment.Log.append log ~source:None ~ids:[ 1 + (!counter land 0xFFFFFF) ])));
    Test.make ~name:"commit-append-500"
      (staged
         (let log = loaded_log (mk_ids 500 21) in
          let counter = ref 0 in
          fun () ->
            ignore
              (Commitment.Log.append log ~source:None
                 ~ids:(fresh_bundle counter))));
    Test.make ~name:"commit-append-500-baseline"
      (staged
         (let t = Baseline_append.create () in
          List.iter (fun id -> Baseline_append.append t [ id ]) (mk_ids 500 21);
          let counter = ref 0 in
          fun () -> Baseline_append.append t (fresh_bundle counter)));
  ]

let fig8_group =
  (* Block building and inspection kernels. *)
  let ids = mk_ids 200 5 in
  let log = loaded_log ids in
  let bundles =
    List.map (fun b -> (b.Commitment.Log.seq, b.Commitment.Log.ids)) (Commitment.Log.bundles log)
  in
  let txs_by_short = Hashtbl.create 256 in
  List.iteri
    (fun i id ->
      let tx = Tx.create ~signer ~fee:(1 + (i mod 50)) ~created_at:0.0
          ~payload:(Printf.sprintf "b%d" i)
      in
      Hashtbl.replace txs_by_short id tx)
    ids;
  let input =
    {
      Policy.bundles;
      find_tx = (fun id -> Hashtbl.find_opt txs_by_short id);
      is_settled = (fun _ -> false);
      fee_threshold = 0;
      max_txs = 1000;
      seed = Block.genesis_hash;
    }
  in
  [
    Test.make ~name:"canonical-order-200"
      (staged (fun () -> Order.canonical ~seed:Block.genesis_hash ~bundles));
    Test.make ~name:"build-fifo-200" (staged (fun () -> Policy.build Policy.Lo_fifo input));
    Test.make ~name:"build-highest-fee-200"
      (staged (fun () -> Policy.build Policy.Highest_fee input));
  ]

let fig9_group =
  (* Wire-format kernels: what each byte of Fig. 9 costs to produce. *)
  let light = Commitment.Log.current_digest_light (loaded_log (mk_ids 30 6)) in
  let full = Commitment.Log.current_digest (loaded_log (mk_ids 30 7)) in
  let light_msg = Messages.encode (Messages.Commit_request { digest = light; delta = [ 1; 2; 3 ]; want = []; appended = [] }) in
  [
    Test.make ~name:"encode-commit-request-light"
      (staged (fun () ->
           Messages.encode (Messages.Commit_request { digest = light; delta = [ 1; 2; 3 ]; want = []; appended = [] })));
    Test.make ~name:"encode-digest-share-full"
      (staged (fun () -> Messages.encode (Messages.Digest_share full)));
    Test.make ~name:"decode-commit-request" (staged (fun () -> Messages.decode light_msg));
    Test.make ~name:"encode-tx-batch-10"
      (staged
         (let txs = List.init 10 (fun i ->
              Tx.create ~signer ~fee:i ~created_at:0.0 ~payload:(String.make 250 'y'))
          in
          fun () -> Messages.encode (Messages.Tx_batch txs)));
  ]

let fig10_group =
  (* Sketch reconciliation kernels at several difference sizes. *)
  List.concat_map
    (fun diff ->
      let merged = sketch_pair diff in
      [
        Test.make ~name:(Printf.sprintf "sketch-decode-diff%d" diff)
          (staged (fun () -> Lo_sketch.Sketch.decode merged));
      ])
    [ 4; 16; 64 ]
  @ [
      (* The reconciler's largest decode: a Bloom-clock estimate of at
         most 128, plus 8 syndromes of slack. *)
      Test.make ~name:"sketch-decode-diff128"
        (staged
           (let merged = sketch_pair ~slack:8 128 in
            fun () -> Lo_sketch.Sketch.decode merged));
      Test.make ~name:"sketch-add"
        (staged
           (let s = Lo_sketch.Sketch.create ~capacity:Commitment.default_sketch_capacity () in
            let counter = ref 0 in
            fun () ->
              incr counter;
              Lo_sketch.Sketch.add s (1 + (!counter land 0xFFFFF))));
      (* The same add from a world pool's cached powers, as in a world
         where every node commits every id: 512 ids in turn, all cached
         before timing starts. *)
      Test.make ~name:"sketch-add-pooled"
        (staged
           (let s = Lo_sketch.Sketch.create ~capacity:Commitment.default_sketch_capacity () in
            let pool = Interner.Tx_pool.create () in
            Interner.Tx_pool.sketch_add_all pool s (List.init 512 (fun i -> i + 1));
            let counter = ref 0 in
            fun () ->
              incr counter;
              Interner.Tx_pool.sketch_add_all pool s [ 1 + (!counter land 511) ]));
      Test.make ~name:"strata-estimate"
        (staged
           (let a = Strata.of_list (mk_ids 300 11) in
            let b = Strata.of_list (mk_ids 320 12) in
            fun () -> Strata.estimate a b));
      Test.make ~name:"bloom-clock-compare"
        (staged
           (let a = Lo_bloom.Bloom_clock.create () in
            let b = Lo_bloom.Bloom_clock.create () in
            List.iter (Lo_bloom.Bloom_clock.add_int a) (mk_ids 100 8);
            List.iter (Lo_bloom.Bloom_clock.add_int b) (mk_ids 110 8);
            fun () -> Lo_bloom.Bloom_clock.compare_clocks a b));
    ]

let memcpu_group =
  (* Sec. 6.5: monolithic vs partitioned reconciliation cost. *)
  let mk n =
    let local = mk_ids n 9 and remote = mk_ids n 10 in
    (local, remote)
  in
  List.concat_map
    (fun n ->
      let local, remote = mk n in
      [
        Test.make ~name:(Printf.sprintf "reconcile-monolithic-%d" (2 * n))
          (staged (fun () ->
               Lo_sketch.Partitioned.reconcile_monolithic ~capacity:(2 * n)
                 ~local ~remote ()));
        Test.make ~name:(Printf.sprintf "reconcile-partitioned-%d" (2 * n))
          (staged (fun () ->
               Lo_sketch.Partitioned.reconcile ~capacity:64 ~local ~remote ()));
      ])
    [ 50; 125 ]

(* ----------------------------------------------------------------- *)
(* Bechamel driver                                                     *)
(* ----------------------------------------------------------------- *)

let smoke = Sys.getenv_opt "LO_BENCH_SMOKE" = Some "1"

let run_group ~name tests =
  let grouped = Test.make_grouped ~name ~fmt:"%s/%s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if smoke then
      Benchmark.cfg ~limit:50 ~quota:(Time.second 0.02) ~kde:None
        ~stabilize:false ()
    else
      Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None
        ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n== bench group: %s ==\n" name;
  let rows =
    Hashtbl.fold (fun key v acc -> (key, v) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (key, result) ->
           match Analyze.OLS.estimates result with
           | Some [ ns ] ->
               Printf.printf "%-42s %12.1f ns/run\n" key ns;
               (key, ns)
           | _ ->
               Printf.printf "%-42s (no estimate)\n" key;
               (key, 0.))
  in
  (name, rows)

(* ----------------------------------------------------------------- *)
(* Sustained ingest (the throughput tier headline)                     *)
(* ----------------------------------------------------------------- *)

(* Not a bechamel group: the number that matters is sustained
   throughput through the whole batched admission pipeline with state
   accumulating — wire decode, batched signature verification, mempool
   insert, one commitment bundle (one signed digest) per batch — not
   the steady-state cost of one warmed call. Two twins share the
   pipeline and differ only in the signer: the simulation signer
   prices the pipeline's own overhead, real Schnorr prices admission
   as a deployment would pay it (one client key, as Host and
   Scenario.build_lo sign their traffic). Each floor is a hard gate:
   the full bench fails below 100k tx/s (simulation) or 1,000 tx/s
   (Schnorr); the smoke run keeps relaxed floors so slow CI containers
   stay green. *)

let ingest_batch_size = 64

type ingest_spec = {
  label : string;
  row : string;  (* sustained-throughput row name *)
  scheme : Signer.scheme;
  client : Signer.t;  (* signs the corpus *)
  node : Signer.t;  (* signs the commitment log *)
  total : int;
  floor : float;
}

let simulation_ingest =
  {
    label = "ingest";
    row = "ingest/sustained-tx-per-s";
    scheme;
    client = signer;
    node = signer;
    total = (if smoke then 32_768 else 131_072);
    floor = (if smoke then 25_000. else 100_000.);
  }

let schnorr_ingest =
  {
    label = "ingest-schnorr";
    row = "ingest/sustained-schnorr-tx-per-s";
    scheme = Signer.schnorr;
    client = Signer.make Signer.schnorr ~seed:"bench-client";
    node = schnorr_signer;
    total = (if smoke then 1_024 else 4_096);
    floor = (if smoke then 250. else 1_000.);
  }

let run_ingest spec =
  Printf.printf "\n== %s (batched admission pipeline) ==\n%!" spec.label;
  let total = spec.total in
  (* Minimal 10-byte payloads: the pipeline-overhead regime. Larger
     payloads shift the cost toward raw SHA-256 throughput (~11 ns per
     byte), which substrate/sha256-1KiB already tracks; this row is
     about per-transaction admission overhead. The fee stays below 128
     so the wire image keeps a 1-byte varint. *)
  let wires =
    Array.init total (fun i ->
        Tx.to_string
          (Tx.create ~signer:spec.client ~fee:(i land 0x7F)
             ~created_at:(float_of_int i *. 1e-3)
             ~payload:(Printf.sprintf "tx-%07d" i)))
  in
  let batches = total / ingest_batch_size in
  let lat = Array.make batches 0. in
  let one_pass () =
    (* Fresh admission state per pass — the ids repeat across passes,
       and a sustained-throughput figure over an all-duplicate stream
       would measure the wrong pipeline. *)
    let m = Mempool.create ~initial_capacity:total () in
    let log = Commitment.Log.create ~signer:spec.node () in
    (* Start from a settled heap so the measured window prices the
       pipeline's own garbage, not the setup's. *)
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for b = 0 to batches - 1 do
      let start = Unix.gettimeofday () in
      let txs = ref [] in
      let base = b * ingest_batch_size in
      for j = base + ingest_batch_size - 1 downto base do
        txs := Tx.of_string wires.(j) :: !txs
      done;
      let r =
        Mempool.ingest_batch ~scheme:spec.scheme
          ~known:(fun s -> Commitment.Log.contains log s)
          ~commit:(fun ids ->
            ignore (Commitment.Log.append log ~source:None ~ids))
          ~received_at:0. ~from_peer:None m !txs
      in
      if r.Mempool.invalid <> [] then failwith "ingest bench: rejected valid tx";
      lat.(b) <- Unix.gettimeofday () -. start
    done;
    let wall = Unix.gettimeofday () -. t0 in
    let tps = float_of_int total /. wall in
    Array.sort compare lat;
    let pct p =
      lat.(min (batches - 1) (int_of_float (p *. float_of_int batches))) *. 1e9
    in
    (tps, pct 0.5, pct 0.99)
  in
  (* Best of a few passes: the same quiet-window discipline bechamel
     applies by sampling — a shared host's noisy neighbours should not
     decide a throughput floor. Every pass is itself a sustained
     full-length run. *)
  let passes = if smoke then 2 else 3 in
  let best = ref (0., 0., 0.) in
  (try
     for p = 1 to passes do
       let ((tps, _, _) as r) = one_pass () in
       let bt, _, _ = !best in
       if tps > bt then best := r;
       Printf.printf "%s pass %d/%d: %.0f tx/s\n%!" spec.label p passes tps;
       if tps >= 1.2 *. spec.floor then raise Exit
     done
   with Exit -> ());
  let tps, p50, p99 = !best in
  Printf.printf
    "%s: %d txs -> %.0f tx/s sustained (batch %d: p50 %.0f ns, p99 %.0f \
     ns)\n\
     %!"
    spec.label total tps ingest_batch_size p50 p99;
  if tps < spec.floor then begin
    Printf.eprintf "%s: %.0f tx/s is below the %.0f tx/s floor\n" spec.label
      tps spec.floor;
    exit 1
  end;
  (tps, p50, p99)

(* Copies, not news: 32 Schnorr transactions the mempool already holds
   under ids the log has committed, as Stage II peers send content for
   ids a node committed to first. [ingest_batch] checks none of their
   signatures again; a fresh batch of 32 costs about
   32 / ingest/sustained-schnorr-tx-per-s. *)
let held_batch_test () =
  let spec = schnorr_ingest in
  let txs =
    List.init 32 (fun i ->
        Tx.create ~signer:spec.client ~fee:i
          ~created_at:(float_of_int i *. 1e-3)
          ~payload:(Printf.sprintf "held-%02d" i))
  in
  let m = Mempool.create () in
  let log = Commitment.Log.create ~signer:spec.node () in
  let ingest txs =
    Mempool.ingest_batch ~scheme:spec.scheme
      ~known:(Commitment.Log.contains log)
      ~commit:(fun ids -> ignore (Commitment.Log.append log ~source:None ~ids))
      ~received_at:0. ~from_peer:None m txs
  in
  ignore (ingest txs);
  let copies = List.map (fun tx -> Tx.of_string (Tx.to_string tx)) txs in
  Test.make ~name:"held-batch32-schnorr-ns"
    (staged (fun () ->
         if (ingest copies).Mempool.duplicates <> 32 then
           failwith "ingest bench: held copy not a duplicate"))

let run_ingests () =
  let tps, p50, p99 = run_ingest simulation_ingest in
  let schnorr_tps, _, _ = run_ingest schnorr_ingest in
  let _, held = run_group ~name:"ingest" [ held_batch_test () ] in
  ( "ingest",
    [
      (simulation_ingest.row, tps);
      ("ingest/batch64-p50-ns", p50);
      ("ingest/batch64-p99-ns", p99);
      (schnorr_ingest.row, schnorr_tps);
    ]
    @ held )

let run_micro () =
  [
    run_group ~name:"substrate" crypto_group;
    run_group ~name:"fig6" fig6_group;
    run_group ~name:"fig7" fig7_group;
    run_group ~name:"fig8" fig8_group;
    run_group ~name:"fig9" fig9_group;
    run_group ~name:"fig10" fig10_group;
    run_group ~name:"sec6.5" memcpu_group;
    run_ingests ();
  ]

(* ----------------------------------------------------------------- *)
(* Full experiments                                                    *)
(* ----------------------------------------------------------------- *)

let run_experiments () =
  let factor =
    match Sys.getenv_opt "LO_BENCH_SCALE" with
    | Some s -> (try float_of_string s with _ -> 1.0)
    | None -> 1.0
  in
  let scale =
    Lo_sim.Experiments.scaled ~factor
      { Lo_sim.Experiments.default_scale with reps = 1; duration = 15. }
  in
  Printf.printf "\n=== Paper experiments (nodes=%d, rate=%.0f tx/s, %.0f s) ===\n"
    scale.Lo_sim.Experiments.nodes scale.Lo_sim.Experiments.rate
    scale.Lo_sim.Experiments.duration;
  let timings = ref [] in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "[%s took %.1f s wall-clock]\n%!" name dt;
    timings := (name, dt) :: !timings
  in
  timed "fig6" (fun () -> ignore (Lo_sim.Experiments.fig6 ~scale ~fractions:[ 0.1; 0.2; 0.3 ] ()));
  timed "fig7" (fun () -> ignore (Lo_sim.Experiments.fig7 ~scale ()));
  timed "fig8-left" (fun () -> ignore (Lo_sim.Experiments.fig8_left ~scale ()));
  timed "fig8-right" (fun () -> ignore (Lo_sim.Experiments.fig8_right ~scale ()));
  timed "fig9" (fun () -> ignore (Lo_sim.Experiments.fig9 ~scale ()));
  timed "fig10" (fun () -> ignore (Lo_sim.Experiments.fig10 ~scale ()));
  timed "memcpu" (fun () -> ignore (Lo_sim.Experiments.memcpu ~scale ()));
  timed "ablation" (fun () -> ignore (Lo_sim.Experiments.ablation ~scale ()));
  List.rev !timings

(* ----------------------------------------------------------------- *)
(* Paper-scale rows (Scale.sweep)                                      *)
(* ----------------------------------------------------------------- *)

(* The 2,000-node sweep runs in every mode — including bench-smoke — as
   the regression gate for the scale work: hard ceilings on wall clock
   and peak RSS, generous enough (~3x the 1-core reference machine) to
   stay quiet across hardware but tight enough to catch the failure
   modes they defend against (calendar queue degenerating to a scan,
   interner/dedup-set leaks, audit state or shard traces that start
   holding the event stream again). The 10,000-node
   pair is measurement-only and runs with the full benchmarks.

   These rows run FIRST in the process: peak RSS comes from VmHWM, a
   process-wide high-water mark that cannot be reset (clear_refs is a
   no-op in some containers), so running the sweeps before the
   experiment layer is what keeps the reading — and the ceiling check —
   about the sweeps rather than about whatever allocated most before
   them. *)
let scale_2k_wall_budget_ms = 120_000.
let scale_2k_rss_budget_mb = 2048.

let run_scale () =
  let row ~n =
    let r = Lo_sim.Scale.sweep ~n ~seed:1 () in
    let wall_ms = r.Lo_sim.Scale.wall_s *. 1000. in
    let rss_mb = Option.value r.Lo_sim.Scale.peak_rss_mb ~default:0. in
    Printf.printf
      "scale n=%d: %d events, %d detections, wall %.0f ms, peak rss %.0f MB\n%!"
      n r.Lo_sim.Scale.events r.Lo_sim.Scale.detections wall_ms rss_mb;
    if not (Lo_sim.Scale.ok r) then begin
      List.iter
        (fun f -> Printf.eprintf "scale n=%d FAILURE: %s\n" n f)
        r.Lo_sim.Scale.failures;
      Printf.eprintf "scale n=%d: audit failed (%d honest exposures)\n" n
        r.Lo_sim.Scale.honest_exposures;
      exit 1
    end;
    (wall_ms, rss_mb)
  in
  Printf.printf "\n== scale sweeps ==\n%!";
  let wall_2k, rss_2k = row ~n:2000 in
  if wall_2k > scale_2k_wall_budget_ms then begin
    Printf.eprintf "scale n=2000: wall %.0f ms exceeds budget %.0f ms\n" wall_2k
      scale_2k_wall_budget_ms;
    exit 1
  end;
  if rss_2k > scale_2k_rss_budget_mb then begin
    Printf.eprintf "scale n=2000: peak rss %.0f MB exceeds budget %.0f MB\n"
      rss_2k scale_2k_rss_budget_mb;
    exit 1
  end;
  [ ("fig6-2k-wall-ms", wall_2k); ("fig6-2k-peak-rss-mb", rss_2k) ]
  @
  if smoke then []
  else begin
    let wall_10k, rss_10k = row ~n:10_000 in
    [ ("fig6-10k-wall-ms", wall_10k); ("fig6-10k-peak-rss-mb", rss_10k) ]
  end

(* ----------------------------------------------------------------- *)
(* BENCH_results.json                                                  *)
(* ----------------------------------------------------------------- *)

(* The file future PRs diff perf against. Key order is fixed by
   construction (groups in run order, tests alphabetical within each,
   the three sections always present) so two result files line up under
   a plain textual diff. *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_num v = if Float.is_finite v then Printf.sprintf "%.3f" v else "0.000"

let results_to_json ~micro ~sim ~speedups =
  let buf = Buffer.create 4096 in
  let obj_of kvs render =
    String.concat ",\n"
      (List.map
         (fun (k, v) -> Printf.sprintf "    \"%s\": %s" (json_escape k) (render v))
         kvs)
  in
  Buffer.add_string buf "{\n  \"schema\": \"lo-bench/1\",\n  \"micro\": {\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun (group, rows) ->
            Printf.sprintf "    \"%s\": {\n%s\n    }" (json_escape group)
              (String.concat ",\n"
                 (List.map
                    (fun (k, ns) ->
                      Printf.sprintf "      \"%s\": %s" (json_escape k)
                        (json_num ns))
                    rows)))
          micro));
  Buffer.add_string buf "\n  },\n  \"sim\": {\n";
  Buffer.add_string buf (obj_of sim json_num);
  Buffer.add_string buf "\n  },\n  \"speedups\": {\n";
  Buffer.add_string buf (obj_of speedups json_num);
  Buffer.add_string buf "\n  }\n}\n";
  Buffer.contents buf

(* Hot-path before/after ratios, computed from the micro rows. *)
let compute_speedups micro =
  let find group key =
    match List.assoc_opt group micro with
    | None -> None
    | Some rows -> List.assoc_opt (group ^ "/" ^ key) rows
  in
  let ratio group slow fast =
    match (find group slow, find group fast) with
    | Some s, Some f when f > 0. -> s /. f
    | _ -> 0.
  in
  match micro with
  | [] -> []
  | _ ->
      [
        ("commit-append-500-vs-baseline",
         ratio "fig7" "commit-append-500-baseline" "commit-append-500");
        (* Amortization of the batch Schnorr path: K individual
           verifications against one K-element verify_many call. *)
        ("schnorr-batch-amortized-16",
         16.0 *. ratio "substrate" "schnorr-verify" "schnorr-batch-verify-16");
        ("schnorr-batch-amortized-64",
         64.0 *. ratio "substrate" "schnorr-verify" "schnorr-batch-verify-64");
        ("schnorr-batch-split-32",
         ratio "substrate" "schnorr-batch-verify-32-one-part"
           "schnorr-batch-verify-32");
      ]

(* ----------------------------------------------------------------- *)
(* Schema validation — a minimal JSON reader, no external deps         *)
(* ----------------------------------------------------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal lit v =
      String.iter expect lit;
      v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
            | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
            | Some 'u' ->
                advance ();
                for _ = 1 to 4 do
                  match peek () with
                  | Some _ -> advance ()
                  | None -> fail "bad \\u escape"
                done;
                Buffer.add_char buf '?';
                go ()
            | Some c -> advance (); Buffer.add_char buf c; go ()
            | None -> fail "bad escape")
        | Some c ->
            advance ();
            Buffer.add_char buf c;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then (advance (); Obj [])
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); members ((k, v) :: acc)
              | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then (advance (); Arr [])
          else
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); elements (v :: acc)
              | Some ']' -> advance (); Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
      | None -> fail "empty input"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
end

let validate_results path =
  let contents =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  in
  let fail msg = Error (Printf.sprintf "%s: %s" path msg) in
  match Json.parse contents with
  | exception Json.Bad msg -> fail ("JSON parse error: " ^ msg)
  | Json.Obj fields -> (
      let all_numbers = function
        | Json.Obj kvs ->
            List.for_all (fun (_, v) -> match v with Json.Num _ -> true | _ -> false) kvs
        | _ -> false
      in
      match
        ( List.assoc_opt "schema" fields,
          List.assoc_opt "micro" fields,
          List.assoc_opt "sim" fields,
          List.assoc_opt "speedups" fields )
      with
      | Some (Json.Str "lo-bench/1"), Some (Json.Obj groups), Some sim, Some speedups ->
          if not (List.for_all (fun (_, g) -> all_numbers g) groups) then
            fail "micro groups must map test names to numbers"
          else if not (all_numbers sim) then fail "sim must map names to numbers"
          else if not (all_numbers speedups) then
            fail "speedups must map names to numbers"
          else Ok ()
      | Some (Json.Str other), _, _, _ -> fail ("unknown schema: " ^ other)
      | _ -> fail "missing schema/micro/sim/speedups")
  | _ -> fail "top level must be an object"

let () =
  let micro_only = Sys.getenv_opt "LO_BENCH_MICRO_ONLY" = Some "1" in
  let sim_only = Sys.getenv_opt "LO_BENCH_SIM_ONLY" = Some "1" in
  let out =
    Option.value (Sys.getenv_opt "LO_BENCH_OUT") ~default:"BENCH_results.json"
  in
  (* Scale rows run in every mode — and first, see run_scale —
     bench-smoke is the gate that fails on a wall/RSS regression at 2k
     nodes. *)
  let scale_rows = run_scale () in
  let micro = if not sim_only then run_micro () else [] in
  let sim = if not micro_only then run_experiments () else [] in
  let sim = sim @ scale_rows in
  let speedups = compute_speedups micro in
  let oc = open_out out in
  output_string oc (results_to_json ~micro ~sim ~speedups);
  close_out oc;
  Printf.printf "\nwrote %s\n" out;
  List.iter
    (fun (name, r) -> Printf.printf "speedup %-34s %8.2fx\n" name r)
    speedups;
  match validate_results out with
  | Ok () -> Printf.printf "%s: schema lo-bench/1 OK\n" out
  | Error msg ->
      prerr_endline msg;
      exit 1
