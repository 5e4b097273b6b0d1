(* Tests for Lo_sim.Parallel: the domain pool itself (ordering, the
   sequential fast path, exception propagation) and the determinism
   contract of the experiment runner — LO_JOBS must never change any
   result, table, or trace by a single byte. *)

open Lo_sim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_jobs n f =
  Unix.putenv "LO_JOBS" (string_of_int n);
  Fun.protect ~finally:(fun () -> Unix.putenv "LO_JOBS" "1") f

(* ---------------- pool mechanics ---------------- *)

let pool_tests =
  [
    Alcotest.test_case "map = List.map (parallel)" `Quick (fun () ->
        let items = List.init 100 Fun.id in
        let f x = (x * x) + 1 in
        check_bool "same" true
          (Parallel.map ~jobs:4 f items = List.map f items));
    Alcotest.test_case "map = List.map (sequential path)" `Quick (fun () ->
        let items = List.init 10 Fun.id in
        let f x = x * 3 in
        check_bool "same" true (Parallel.map ~jobs:1 f items = List.map f items));
    Alcotest.test_case "empty and singleton" `Quick (fun () ->
        check_bool "empty" true (Parallel.map ~jobs:4 Fun.id [] = []);
        check_bool "single" true (Parallel.map ~jobs:4 succ [ 41 ] = [ 42 ]));
    Alcotest.test_case "submission order under uneven work" `Quick (fun () ->
        (* Later items finish first; results must still come back in
           submission order. *)
        let items = List.init 32 Fun.id in
        let f x =
          let spin = (32 - x) * 2000 in
          let acc = ref 0 in
          for i = 1 to spin do
            acc := !acc + i
          done;
          (x, !acc)
        in
        check_bool "ordered" true (Parallel.map ~jobs:4 f items = List.map f items));
    Alcotest.test_case "lowest-index exception wins" `Quick (fun () ->
        let f x = if x mod 4 = 2 then failwith (Printf.sprintf "boom%d" x) else x in
        (match Parallel.map ~jobs:4 f (List.init 20 Fun.id) with
        | exception Failure msg -> Alcotest.(check string) "first failure" "boom2" msg
        | _ -> Alcotest.fail "expected failure");
        (* remaining tasks still ran: a pure count via side effect *)
        let ran = Atomic.make 0 in
        (try
           ignore
             (Parallel.map ~jobs:4
                (fun x ->
                  Atomic.incr ran;
                  if x = 0 then failwith "first")
                (List.init 8 Fun.id))
         with Failure _ -> ());
        check_int "all tasks ran" 8 (Atomic.get ran));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:"sweep groups as the sequential nested loop"
         QCheck2.Gen.(
           triple (list_size (int_bound 6) small_nat) (int_range 1 4)
             (int_range 1 4))
         (fun (cells, reps, jobs) ->
           let f cell rep = (cell * 10) + rep in
           with_jobs jobs (fun () -> Parallel.sweep ~reps f cells)
           = List.map (fun c -> (c, List.init reps (f c))) cells));
    Alcotest.test_case "invalid LO_JOBS rejected" `Quick (fun () ->
        Unix.putenv "LO_JOBS" "zero";
        Fun.protect
          ~finally:(fun () -> Unix.putenv "LO_JOBS" "1")
          (fun () ->
            match Parallel.jobs () with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "accepted LO_JOBS=zero"));
  ]

(* ---------------- experiment determinism ---------------- *)

let small_scale =
  {
    Experiments.nodes = 10;
    reps = 2;
    rate = 4.;
    duration = 4.;
    seed = 2;
  }

let determinism_tests =
  [
    Alcotest.test_case "fig6 identical under LO_JOBS=1 and 4" `Slow (fun () ->
        let run () =
          with_jobs 1 (fun () ->
              Experiments.fig6 ~scale:small_scale ~fractions:[ 0.2 ] ())
        in
        let seq = run () in
        let par =
          with_jobs 4 (fun () ->
              Experiments.fig6 ~scale:small_scale ~fractions:[ 0.2 ] ())
        in
        check_bool "same points" true (compare seq par = 0);
        (* and the sequential run itself is reproducible *)
        check_bool "stable" true (compare seq (run ()) = 0));
    Alcotest.test_case "chaos identical under LO_JOBS=1 and 4" `Slow (fun () ->
        let sweep () =
          Experiments.chaos ~scale:small_scale ~churn_rates:[ 0.2 ]
            ~partition_durations:[ 0. ] ~burst_losses:[ 0.3 ] ()
        in
        let seq = with_jobs 1 sweep in
        let par = with_jobs 4 sweep in
        check_bool "same cells" true (compare seq par = 0));
    Alcotest.test_case "trace JSONL byte-identical under LO_JOBS=1 and 4" `Slow
      (fun () ->
        let jsonl () =
          let r = Experiments.trace_run ~scale:small_scale ~kind:`Chaos () in
          Lo_obs.Jsonl.to_string r.Experiments.trace
        in
        let seq = with_jobs 1 jsonl in
        let par = with_jobs 4 jsonl in
        check_bool "non-empty" true (String.length seq > 0);
        check_bool "byte-identical" true (String.equal seq par));
  ]

let () =
  Alcotest.run "lo_parallel"
    [ ("pool", pool_tests); ("determinism", determinism_tests) ]
