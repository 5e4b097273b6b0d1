(* Clocks, order statistics and the result line shared by every workload. *)

let wall () = Unix.gettimeofday ()

(* User + system CPU seconds of this process. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- host-speed calibration ---

   A shared host runs the same code at different speeds from one second
   to the next: the reference host (2 shared vCPUs) switches between
   modes about 1.6x apart, for fractions of a second to minutes. So every
   timed piece of work is followed by a fixed calibration kernel, and the
   work's seconds are multiplied by [speed ()]: [kernel_ref_s] over the
   kernel's time. The result is the seconds the work would take on a host
   that runs the kernel in [kernel_ref_s], at whatever mode it happened to
   be measured in. The kernel is this file's own code, so no change to the
   repository's libraries can move it.

   The kernel is a serial chain of 64-bit multiplies, adds and xors, as in
   field arithmetic; over 30 s of Schnorr ingest, the rescaled time
   varied by 3% where the raw time varied by 17%. *)

let kernel_iters = 500_000
let kernel_ref_s = 1e-3

let kernel () =
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to kernel_iters do
    x := (!x * 0x5851f42d4c957f2d) + 0x14057b7ef767814f;
    acc := !acc lxor ((!x lsr 17) * (!x land 0xffff))
  done;
  Sys.opaque_identity !acc

(* The factor that rescales seconds just measured to reference seconds. *)
let speed () =
  let t0 = wall () in
  ignore (kernel ());
  kernel_ref_s /. (wall () -. t0)

(* Samples and percentiles are the simulator's own
   ([Lo_sim.Metrics.Stats]), so the benchmark's percentiles agree with
   the repository's reports. *)
let median values =
  let s = Lo_sim.Metrics.Stats.create () in
  Array.iter (Lo_sim.Metrics.Stats.add s) values;
  Lo_sim.Metrics.Stats.percentile s 0.5

(* The failure share plus a floor of 0.01. Failures are rare and come in
   ones and twos, so a plain share would read 0 on most runs and swing
   without bound on the rest; with the floor, a 0.25 bound means a
   quarter of a percentage point more transactions failed. *)
let failed_ratio ~attempted ~failed =
  0.01 +. (float_of_int failed /. float_of_int (max 1 attempted))

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The one line the benchmark runner reads: correctness, the attempted and
   failed operation counts, and every metric with its unit. *)
let print_result ~correct ~attempted ~failed metrics =
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name
             (if Float.is_finite x.value then x.value else 0.)
             x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct && finite) attempted failed body;
  if not finite then
    List.iter
      (fun x ->
        if not (Float.is_finite x.value) then
          Printf.eprintf "lobench: metric %s is not finite\n%!" x.name)
      metrics

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
