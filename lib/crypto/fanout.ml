(* Helper domains for [Schnorr.batch_verify]'s kernel checks. A call is
   a job of numbered parts; the caller and the helpers claim parts one
   at a time under one lock, and run them without it. Parts are few
   (2-4 per call) and each takes milliseconds, so the lock is never
   contended for long. *)

let max_helpers = 3

(* A helper allocates only the kernel's short-lived temporaries. With
   the default 256k-word minor heap it raised ingest-schnorr's peak RSS
   by about 1.6 MB (a tenth); a quarter of that heap gives the same
   throughput and CPU. *)
let helper_minor_heap_words = 65536

let helpers = max 0 (min max_helpers (Domain.recommended_domain_count () - 1))
let width () = 1 + helpers

type job = {
  check : int -> bool;
  parts : int;
  mutable next : int;  (* the first part nobody has claimed *)
  mutable running : int;  (* parts helpers have claimed and not finished *)
  mutable ok : bool;
  mutable error : (exn * Printexc.raw_backtrace) option;
  finished : Condition.t;  (* signalled when [running] drops to 0 *)
}

(* Jobs that still have unclaimed parts, oldest first, and every job
   field are read and written under [lock]; [started] is also read
   without it. *)
let lock = Mutex.create ()
let work = Condition.create ()
let open_jobs : job list ref = ref []
let started = Atomic.make false
let spawned () = Atomic.get started

let close job =
  job.next <- job.parts;
  open_jobs := List.filter (fun j -> j != job) !open_jobs

let claim job =
  let i = job.next in
  if i + 1 = job.parts then close job else job.next <- i + 1;
  i

let attempt job i =
  match job.check i with
  | ok -> Ok ok
  | exception e -> Error (e, Printexc.get_raw_backtrace ())

(* A failed or raising part closes the job: nobody claims the rest. *)
let record job = function
  | Ok true -> ()
  | Ok false ->
      job.ok <- false;
      close job
  | Error e ->
      if job.error = None then job.error <- Some e;
      close job

let helper () =
  Gc.set { (Gc.get ()) with minor_heap_size = helper_minor_heap_words };
  Mutex.lock lock;
  while true do
    match !open_jobs with
    | [] -> Condition.wait work lock
    | job :: _ ->
        let i = claim job in
        job.running <- job.running + 1;
        Mutex.unlock lock;
        let result = attempt job i in
        Mutex.lock lock;
        record job result;
        job.running <- job.running - 1;
        if job.running = 0 then Condition.signal job.finished
  done

let for_all parts check =
  if parts <= 1 || helpers = 0 then
    let rec go i = i >= parts || (check i && go (i + 1)) in
    go 0
  else begin
    let job =
      {
        check;
        parts;
        next = 0;
        running = 0;
        ok = true;
        error = None;
        finished = Condition.create ();
      }
    in
    Mutex.lock lock;
    if not (Atomic.get started) then begin
      (* A helper that cannot be spawned (the runtime's domain limit)
         leaves its parts to the caller; the lock must not stay held. *)
      (try
         for _ = 1 to helpers do
           ignore (Domain.spawn helper : unit Domain.t)
         done
       with Failure _ -> ());
      Atomic.set started true
    end;
    open_jobs := !open_jobs @ [ job ];
    for _ = 1 to min (parts - 1) helpers do
      Condition.signal work
    done;
    (* The lock is still held, so the caller claims part 0. *)
    while job.next < job.parts do
      let i = claim job in
      Mutex.unlock lock;
      let result = attempt job i in
      Mutex.lock lock;
      record job result
    done;
    while job.running > 0 do
      Condition.wait job.finished lock
    done;
    Mutex.unlock lock;
    match job.error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> job.ok
  end
