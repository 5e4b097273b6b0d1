(* Domain pool for embarrassingly parallel experiment sweeps.

   Tasks are drawn from a shared [Atomic] counter (work stealing by
   index), run on [jobs] domains, and joined in submission order — the
   caller sees exactly the list [List.map f items] would produce, with
   the first raised exception (by submission index) re-raised. Tasks
   must therefore be independent: each experiment rep builds its own
   network, RNG and protocol state from its seed, which is what keeps
   parallel output byte-identical to the sequential path. *)

let jobs () =
  match Sys.getenv_opt "LO_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> invalid_arg "LO_JOBS must be a positive integer")
  | None -> Domain.recommended_domain_count ()

type 'b slot = Pending | Done of 'b | Failed of exn

let map ?jobs:j f items =
  let jobs = match j with Some n -> n | None -> jobs () in
  let tasks = Array.of_list items in
  let n = Array.length tasks in
  if jobs <= 1 || n <= 1 then List.map f items
  else begin
    let results = Array.make n Pending in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          (* Failures are captured per-slot so one bad task neither
             kills its domain nor hides the results of the others. *)
          results.(i) <-
            (match f tasks.(i) with
            | v -> Done v
            | exception e -> Failed e)
      done
    in
    let spawned =
      List.init (min jobs n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join spawned;
    Array.to_list
      (Array.map
         (function
           | Done v -> v
           | Failed e -> raise e
           | Pending -> assert false)
         results)
  end

let sweep ~reps f cells =
  let runs =
    Array.of_list
      (map
         (fun (cell, rep) -> f cell rep)
         (List.concat_map (fun c -> List.init reps (fun r -> (c, r))) cells))
  in
  List.mapi
    (fun i cell -> (cell, List.init reps (fun r -> runs.((i * reps) + r))))
    cells
