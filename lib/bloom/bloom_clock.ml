module Writer = Lo_codec.Writer
module Reader = Lo_codec.Reader

type t = { counters : int array; mutable count : int }
type order = Equal | Less | Greater | Concurrent

let create ?(cells = 32) () =
  if cells <= 0 then invalid_arg "Bloom_clock.create";
  { counters = Array.make cells 0; count = 0 }

let cells t = Array.length t.counters
let copy t = { counters = Array.copy t.counters; count = t.count }

let cell_of_int ~cells id =
  let z = Int64.mul (Int64.of_int id) 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  Int64.to_int z land max_int mod cells

let bump t cell =
  t.counters.(cell) <- t.counters.(cell) + 1;
  t.count <- t.count + 1

let add_int t id = bump t (cell_of_int ~cells:(cells t) id)

let get t i = t.counters.(i)
let count t = t.count

let compare_clocks a b =
  if cells a <> cells b then invalid_arg "Bloom_clock.compare_clocks: sizes";
  let some_less = ref false and some_greater = ref false in
  Array.iteri
    (fun i va ->
      let vb = b.counters.(i) in
      if va < vb then some_less := true
      else if va > vb then some_greater := true)
    a.counters;
  match (!some_less, !some_greater) with
  | false, false -> Equal
  | true, false -> Less
  | false, true -> Greater
  | true, true -> Concurrent

let dominates a b =
  match compare_clocks a b with Equal | Greater -> true | Less | Concurrent -> false

let diff_cells a b =
  if cells a <> cells b then invalid_arg "Bloom_clock.diff_cells: sizes";
  let acc = ref [] in
  for i = cells a - 1 downto 0 do
    if a.counters.(i) <> b.counters.(i) then acc := i :: !acc
  done;
  !acc

let estimate_difference a b =
  if cells a <> cells b then invalid_arg "Bloom_clock.estimate_difference: sizes";
  let total = ref 0 in
  Array.iteri
    (fun i va -> total := !total + abs (va - b.counters.(i)))
    a.counters;
  !total

let merge a b =
  if cells a <> cells b then invalid_arg "Bloom_clock.merge: sizes";
  {
    counters = Array.init (cells a) (fun i -> max a.counters.(i) b.counters.(i));
    count = max a.count b.count;
  }

(* Wire format: u16 cell count, u32 total, then one u16 per cell, as in
   the paper's 68-byte layout for 32 cells. *)
let max_counter = 0xFFFF
let encoded_size t = 2 + 4 + (2 * cells t)

let encode w t =
  Writer.u16 w (cells t);
  Writer.u32 w t.count;
  Array.iter (fun v -> Writer.u16 w (min v max_counter)) t.counters

let decode r =
  let n = Reader.u16 r in
  if n = 0 then raise (Reader.Malformed "bloom clock: zero cells");
  let count = Reader.u32 r in
  (* As in [Sketch.decode_wire]: no allocation the bytes cannot back. *)
  if Reader.remaining r < 2 * n then
    raise (Reader.Malformed "truncated bloom clock");
  let counters = Array.init n (fun _ -> Reader.u16 r) in
  { counters; count }
