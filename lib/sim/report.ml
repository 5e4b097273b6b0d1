let pr fmt = Printf.printf fmt

let rule width = pr "%s\n" (String.make width '-')

let table ~title ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let widths =
    List.init cols (fun c ->
        List.fold_left
          (fun acc row ->
            match List.nth_opt row c with
            | Some cell -> max acc (String.length cell)
            | None -> acc)
          0 all)
  in
  let render row =
    String.concat "  "
      (List.mapi
         (fun c cell ->
           let w = List.nth widths c in
           cell ^ String.make (max 0 (w - String.length cell)) ' ')
         row)
  in
  let width = String.length (render header) in
  pr "\n== %s ==\n" title;
  pr "%s\n" (render header);
  rule width;
  List.iter (fun row -> pr "%s\n" (render row)) rows

(* Non-finite values (a metric that never reached its target reports
   [infinity]) render as an empty bar rather than crashing
   [String.make]; [vmax] is computed over finite entries only. *)
let bar width v vmax =
  if vmax <= 0. || not (Float.is_finite v) then ""
  else
    String.make
      (max 0 (int_of_float (Float.round (width *. Float.min v vmax /. vmax))))
      '#'

let finite_max =
  List.fold_left (fun m v -> if Float.is_finite v then Float.max m v else m) 0.

let series ~title ~x_label ~y_label points =
  pr "\n== %s ==\n" title;
  pr "%14s  %14s\n" x_label y_label;
  let vmax = finite_max (List.map snd points) in
  List.iter
    (fun (x, y) -> pr "%14.3f  %14.3f  %s\n" x y (bar 40. y vmax))
    points

let histogram ~title ~edges ~density =
  pr "\n== %s ==\n" title;
  let vmax = Array.fold_left Float.max 0. density in
  Array.iteri
    (fun i (lo, hi) ->
      pr "[%6.2f, %6.2f)  %6.4f  %s\n" lo hi density.(i)
        (bar 40. density.(i) vmax))
    edges

let seconds v = Printf.sprintf "%.3f s" v

let bytes n =
  let f = float_of_int n in
  if f >= 1048576. then Printf.sprintf "%.2f MB" (f /. 1048576.)
  else if f >= 1024. then Printf.sprintf "%.2f KB" (f /. 1024.)
  else Printf.sprintf "%d B" n
