(* The benchmark's measuring program: runs one workload, plain (end-to-end
   metrics) or traced (per-layer metrics), checks its output, and prints
   one JSON result line. Invoked by run.py; see README.md.

     lobench.exe WORKLOAD --seed N [--seconds S] [--trace 0|1] *)

let usage = "lobench.exe (sim-fig6 | ingest-schnorr) --seed N [options]"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 30. in
  let traced = ref 0 in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N workload seed (required)");
      ("--seconds", Arg.Set_float seconds, "S minimum ingest window (default 30)");
      ("--trace", Arg.Set_int traced, "0|1 plain run or traced per-layer run");
    ]
    (fun w -> workload := w)
    usage;
  if !seed < 0 || (!traced <> 0 && !traced <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let seed = !seed and seconds = !seconds in
  let correct, attempted, failed, metrics =
    match (!workload, !traced = 1) with
    | "sim-fig6", false -> Sim_fig6.end_to_end ~seed
    | "sim-fig6", true -> Sim_fig6.per_layer ~seed
    | "ingest-schnorr", false -> Ingest.end_to_end ~seed ~seconds
    | "ingest-schnorr", true -> Ingest.per_layer ~seed ~seconds
    | w, _ ->
        Printf.eprintf "lobench: unknown workload %S\n%s\n" w usage;
        exit 2
  in
  (* A run that attempted nothing measured nothing. *)
  let correct = correct && attempted > 0 in
  Stats.print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
