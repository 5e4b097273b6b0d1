open Lo_sketch
module Writer = Lo_codec.Writer
module Reader = Lo_codec.Reader

type t = { strata : Sketch.t array }

(* Mix the element before counting trailing zeros so the stratum choice
   is independent of any structure in the ids themselves. *)
let mix id =
  let z = Int64.mul (Int64.of_int id) 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 27)) land max_int

let stratum_of t id =
  let h = mix id in
  let rec tz i = if i >= Array.length t.strata - 1 || h lsr i land 1 = 1 then i else tz (i + 1) in
  tz 0

let create ?(strata = 24) ?(capacity_per_stratum = 8) () =
  if strata <= 0 || capacity_per_stratum <= 0 then invalid_arg "Strata.create";
  {
    strata =
      Array.init strata (fun _ ->
          Sketch.create ~capacity:capacity_per_stratum ());
  }

let add t id = Sketch.add t.strata.(stratum_of t id) id
let add_all t ids = List.iter (add t) ids

let of_list ?strata ?capacity_per_stratum ids =
  let t = create ?strata ?capacity_per_stratum () in
  add_all t ids;
  t

let estimate a b =
  if Array.length a.strata <> Array.length b.strata then
    invalid_arg "Strata.estimate: mismatched estimators";
  let n = Array.length a.strata in
  (* Decode from the sparsest strata down; scale up at the first decode
     failure. *)
  let rec go i count =
    if i < 0 then count
    else
      match Sketch.decode (Sketch.merge a.strata.(i) b.strata.(i)) with
      | Ok diff -> go (i - 1) (count + List.length diff)
      | Error `Decode_failure -> (1 lsl (i + 1)) * count
  in
  go (n - 1) 0

let serialized_size t =
  1 + Array.fold_left (fun acc s -> acc + Sketch.serialized_size s) 0 t.strata

let encode w t =
  Writer.u8 w (Array.length t.strata);
  Array.iter (Sketch.encode w) t.strata

let decode_wire r =
  let n = Reader.u8 r in
  if n = 0 then raise (Reader.Malformed "strata count");
  { strata = Array.init n (fun _ -> Sketch.decode_wire r) }
