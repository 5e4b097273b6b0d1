module Writer = Lo_codec.Writer
module Reader = Lo_codec.Reader

type t = { field : Gf2m.t; capacity : int; syndromes : int array }

let create ?(field = Gf2m.gf32) ~capacity () =
  if capacity <= 0 then invalid_arg "Sketch.create: capacity";
  { field; capacity; syndromes = Array.make capacity 0 }

let field t = t.field
let capacity t = t.capacity
let copy t = { t with syndromes = Array.copy t.syndromes }

let check_element field e =
  if e <= 0 || e > Gf2m.mask field then invalid_arg "Sketch.add: element"

let add t e =
  check_element t.field e;
  (* Accumulate odd powers e^1, e^3, e^5, ... — the multiplier e^2 is
     fixed across the loop, so the whole walk runs as one fused kernel
     with the window table, reduction, and running power inlined. *)
  Gf2m.accum_powers t.field ~base:e ~step:(Gf2m.sq t.field e) t.syndromes
    ~n:t.capacity

(* Pairs of elements share one syndrome pass (see
   [Gf2m.accum_powers2]); element order is irrelevant since syndrome
   accumulation is xor. *)
let add_all t es =
  let mask = Gf2m.mask t.field in
  let rec go = function
    | [] -> ()
    | [ e ] -> add t e
    | e1 :: e2 :: rest ->
        if e1 <= 0 || e1 > mask || e2 <= 0 || e2 > mask then
          invalid_arg "Sketch.add: element";
        Gf2m.accum_powers2 t.field ~base1:e1
          ~step1:(Gf2m.sq t.field e1)
          ~base2:e2
          ~step2:(Gf2m.sq t.field e2)
          t.syndromes ~n:t.capacity;
        go rest
  in
  go es

let fill_powers e v =
  let f = Gf2m.gf32 in
  check_element f e;
  Array.fill v 0 (Array.length v) 0;
  Gf2m.accum_powers f ~base:e ~step:(Gf2m.sq f e) v ~n:(Array.length v)

let add_powers t v =
  if Array.length v < t.capacity then invalid_arg "Sketch.add_powers: vector";
  let s = t.syndromes in
  for i = 0 to t.capacity - 1 do
    Array.unsafe_set s i (Array.unsafe_get s i lxor Array.unsafe_get v i)
  done

let of_list ?field ~capacity es =
  let t = create ?field ~capacity () in
  add_all t es;
  t

let merge a b =
  if Gf2m.bits a.field <> Gf2m.bits b.field || a.capacity <> b.capacity then
    invalid_arg "Sketch.merge: incompatible sketches";
  {
    a with
    syndromes = Array.init a.capacity (fun i -> a.syndromes.(i) lxor b.syndromes.(i));
  }

let truncate t ~capacity =
  if capacity <= 0 then invalid_arg "Sketch.truncate: capacity";
  if capacity >= t.capacity then t
  else { t with capacity; syndromes = Array.sub t.syndromes 0 capacity }

let is_empty t = Array.for_all (fun s -> s = 0) t.syndromes

(* Re-encode to rule out spurious decodes beyond capacity. *)
let reencode_check t elements =
  let check = create ~field:t.field ~capacity:t.capacity () in
  add_all check elements;
  if Array.for_all2 ( = ) check.syndromes t.syndromes then Ok elements
  else Error `Decode_failure

let decode t =
  if is_empty t then Ok []
  else begin
    let f = t.field in
    let c = t.capacity in
    (* Full syndrome sequence s_1..s_2c; even entries from Frobenius:
       s_2k = s_k^2. [ss] is 1-indexed. *)
    let ss = Array.make ((2 * c) + 1) 0 in
    for k = 1 to 2 * c do
      ss.(k) <-
        (if k land 1 = 1 then t.syndromes.((k - 1) / 2)
         else Gf2m.sq f ss.(k / 2))
    done;
    let locator, l = Berlekamp_massey.run f (Array.sub ss 1 (2 * c)) in
    if l = 0 || Poly.degree locator <> l then Error `Decode_failure
    else
      match Poly.roots f locator with
      | None -> Error `Decode_failure
      | Some roots when List.length roots <> l -> Error `Decode_failure
      | Some roots when List.mem 0 roots -> Error `Decode_failure
      | Some roots -> reencode_check t (List.map (Gf2m.inv f) roots)
  end

let syndrome_bytes field = (Gf2m.bits field + 7) / 8
let serialized_size t = 1 + 2 + (t.capacity * syndrome_bytes t.field)

let encode w t =
  Writer.u8 w (Gf2m.bits t.field);
  Writer.u16 w t.capacity;
  let nb = syndrome_bytes t.field in
  Array.iter
    (fun s ->
      for i = nb - 1 downto 0 do
        Writer.u8 w ((s lsr (8 * i)) land 0xFF)
      done)
    t.syndromes

let encode_into t buf ~pos =
  let nb = syndrome_bytes t.field in
  let len = serialized_size t in
  if pos < 0 || pos + len > Bytes.length buf then
    invalid_arg "Sketch.encode_into";
  Bytes.unsafe_set buf pos (Char.unsafe_chr (Gf2m.bits t.field));
  Bytes.unsafe_set buf (pos + 1) (Char.unsafe_chr ((t.capacity lsr 8) land 0xFF));
  Bytes.unsafe_set buf (pos + 2) (Char.unsafe_chr (t.capacity land 0xFF));
  let off = ref (pos + 3) in
  for i = 0 to t.capacity - 1 do
    let s = Array.unsafe_get t.syndromes i in
    for b = nb - 1 downto 0 do
      Bytes.unsafe_set buf !off (Char.unsafe_chr ((s lsr (8 * b)) land 0xFF));
      incr off
    done
  done

let decode_wire ?(field = Gf2m.gf32) r =
  let m = Reader.u8 r in
  if m <> Gf2m.bits field then raise (Reader.Malformed "sketch field size");
  let capacity = Reader.u16 r in
  if capacity = 0 then raise (Reader.Malformed "sketch capacity");
  let nb = syndrome_bytes field in
  (* Size the array only once the input can back it: a hostile count
     must not buy a 65,535-entry allocation from a few bytes. *)
  if Reader.remaining r < capacity * nb then
    raise (Reader.Malformed "truncated sketch");
  let syndromes =
    Array.init capacity (fun _ ->
        let v = ref 0 in
        for _ = 1 to nb do
          v := (!v lsl 8) lor Reader.u8 r
        done;
        if !v > Gf2m.mask field then raise (Reader.Malformed "sketch syndrome");
        !v)
  in
  { field; capacity; syndromes }
