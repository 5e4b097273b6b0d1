(* Equivalence suite pinning the scale machinery of lib/core and
   lib/sim: the interner against naive string keys, the Bigarray dedup
   set against Hashtbl, Welford absorb against sequential adds, and a
   2,000-node audited sweep smoke with a live-heap budget.

   The calendar event queue's model check lives with the other queue
   tests in test_net.ml. *)

open Lo_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Short strings drawn from a small alphabet so duplicates are common —
   interning is only interesting under collisions. *)
let key_gen =
  QCheck2.Gen.(string_size ~gen:(char_range 'a' 'e') (int_range 1 6))

(* ---------------- Interner vs naive reference ---------------- *)

(* Reference: ids are first-seen order in a assoc list keyed by string
   equality — the semantics Directory had before interning. *)
let naive_ids keys =
  List.fold_left
    (fun acc k -> if List.mem_assoc k acc then acc else (k, List.length acc) :: acc)
    [] keys
  |> List.rev

let interner_tests =
  [
    qtest "intern matches naive first-seen ids" (QCheck2.Gen.list key_gen)
      (fun keys ->
        let t = Interner.create () in
        let ids = List.map (fun k -> Interner.intern t k) keys in
        let reference = naive_ids keys in
        ids = List.map (fun k -> List.assoc k reference) keys
        && Interner.size t = List.length reference);
    qtest "find/to_string round-trip" (QCheck2.Gen.list key_gen) (fun keys ->
        let t = Interner.create () in
        List.iter (fun k -> ignore (Interner.intern t k)) keys;
        List.for_all
          (fun k ->
            match Interner.find t k with
            | None -> false
            | Some id -> String.equal (Interner.to_string t id) k)
          keys);
    Alcotest.test_case "unknown ids raise" `Quick (fun () ->
        let t = Interner.create () in
        ignore (Interner.intern t "a");
        check_bool "raises" true
          (match Interner.to_string t 7 with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

(* ---------------- Dedup_set vs Hashtbl ---------------- *)

let dedup_tests =
  [
    qtest "add/mem/cardinal match Hashtbl"
      QCheck2.Gen.(list (int_range 1 50))
      (fun keys ->
        let set = Dedup_set.create ~initial_capacity:4 () in
        let tbl = Hashtbl.create 16 in
        List.for_all
          (fun k ->
            let fresh_ref = not (Hashtbl.mem tbl k) in
            if fresh_ref then Hashtbl.add tbl k ();
            let fresh = Dedup_set.add set k in
            fresh = fresh_ref
            && Dedup_set.mem set k
            && Dedup_set.cardinal set = Hashtbl.length tbl)
          keys
        && List.for_all
             (fun k -> Dedup_set.mem set k = Hashtbl.mem tbl k)
             (List.init 60 (fun i -> i + 1)));
    qtest "iter visits each member exactly once"
      QCheck2.Gen.(list (int_range 1 1000))
      (fun keys ->
        let set = Dedup_set.create ~initial_capacity:4 () in
        List.iter (fun k -> ignore (Dedup_set.add set k)) keys;
        let seen = Hashtbl.create 16 in
        Dedup_set.iter set (fun k ->
            Alcotest.(check bool) "no repeats" false (Hashtbl.mem seen k);
            Hashtbl.add seen k ());
        let module S = Set.Make (Int) in
        Hashtbl.length seen = S.cardinal (S.of_list keys));
    Alcotest.test_case "growth keeps membership" `Quick (fun () ->
        let set = Dedup_set.create ~initial_capacity:2 () in
        for k = 1 to 10_000 do
          check_bool "fresh" true (Dedup_set.add set k)
        done;
        for k = 1 to 10_000 do
          check_bool "member" true (Dedup_set.mem set k);
          check_bool "dup" false (Dedup_set.add set k)
        done;
        check_int "cardinal" 10_000 (Dedup_set.cardinal set);
        check_bool "load under 50%" true
          (2 * Dedup_set.cardinal set <= Dedup_set.capacity set));
    Alcotest.test_case "rejects non-positive keys" `Quick (fun () ->
        let set = Dedup_set.create () in
        check_bool "raises" true
          (match Dedup_set.add set 0 with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

(* ---------------- Welford absorb order ---------------- *)

let stats_tests =
  [
    (* absorb must replay the source's samples in insertion order, so a
       parallel shard join is bit-identical to the sequential fold the
       golden outputs were produced with. *)
    qtest "absorb equals sequential adds"
      QCheck2.Gen.(
        pair
          (list (float_bound_inclusive 1000.))
          (list (float_bound_inclusive 1000.)))
      (fun (xs, ys) ->
        let seq = Lo_sim.Metrics.Stats.create () in
        List.iter (Lo_sim.Metrics.Stats.add seq) (xs @ ys);
        let a = Lo_sim.Metrics.Stats.create () in
        let b = Lo_sim.Metrics.Stats.create () in
        List.iter (Lo_sim.Metrics.Stats.add a) xs;
        List.iter (Lo_sim.Metrics.Stats.add b) ys;
        Lo_sim.Metrics.Stats.absorb a b;
        (* Bit-exact, not approximate: Int64 views catch sign/NaN tricks
           a float compare would forgive. *)
        let bits f = Int64.bits_of_float f in
        let open Lo_sim.Metrics.Stats in
        bits (mean a) = bits (mean seq)
        && bits (stddev a) = bits (stddev seq)
        && count a = count seq
        && values a = values seq);
  ]

(* ---------------- 2,000-node sweep smoke ---------------- *)

(* Short horizon: a 2 s workload, and the shortest drain at which retry
   escalation matures censor suspicions into detections beyond the
   audit's 12 s grace window (24 s; at 20 s every violation is still
   inside grace and detections read zero). Budgets are ~2x the
   reference machine's measurements. *)
let sweep_smoke () =
  let r = Lo_sim.Scale.sweep ~n:2000 ~duration:2.0 ~drain:24.0 ~seed:7 () in
  List.iter
    (fun f -> Printf.eprintf "scale smoke FAILURE: %s\n" f)
    r.Lo_sim.Scale.failures;
  check_bool "audit clean" true (r.Lo_sim.Scale.failures = []);
  check_int "zero honest exposures" 0 r.Lo_sim.Scale.honest_exposures;
  check_bool "adversaries detected" true (r.Lo_sim.Scale.detections > 0);
  check_bool "workload delivered" true (r.Lo_sim.Scale.delivered > 0);
  let live_words = (Gc.quick_stat ()).Gc.top_heap_words in
  (* ~62M words observed on a 2-vCPU host: node state, since each
     shard's audit folds its events and no trace ring is kept (with
     rings sized for the whole stream it was ~109M); 2x headroom. *)
  let budget = 125_000_000 in
  if live_words > budget then
    Alcotest.failf "top_heap_words %d exceeds budget %d" live_words budget

(* A fraction outside [0, 1] used to spin [pick_malicious]'s redraw
   loop forever once every node was marked; it must raise before
   drawing, so these cases cannot hang. *)
let pick_tests =
  let pick fraction =
    Deployment.pick_malicious ~seed:1 ~n:10 ~fraction
  in
  [
    Alcotest.test_case "fractions outside [0, 1] are rejected" `Quick
      (fun () ->
        List.iter
          (fun fraction ->
            match pick fraction with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "fraction %g accepted" fraction)
          [ 1.5; -0.1; Float.nan; Float.infinity ]);
    Alcotest.test_case "fractions 0 and 1 mark none and all" `Quick
      (fun () ->
        check_int "none" 0 (snd (pick 0.));
        let all, count = pick 1. in
        check_int "all" 10 count;
        check_bool "every node" true (Array.for_all Fun.id all));
    Alcotest.test_case "a sweep at fraction 1.5 is rejected" `Quick
      (fun () ->
        match Lo_sim.Scale.sweep ~malicious_fraction:1.5 ~n:4 ~seed:1 () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "sweep accepted fraction 1.5");
  ]

let scale_tests =
  [ Alcotest.test_case "2000-node audited sweep" `Slow sweep_smoke ]

let () =
  Alcotest.run "lo_scale"
    [
      ("interner", interner_tests);
      ("dedup_set", dedup_tests);
      ("stats", stats_tests);
      ("malicious", pick_tests);
      ("sweep", scale_tests);
    ]
