module Writer = Lo_codec.Writer
module Reader = Lo_codec.Reader

type t = { capacity : int; syndromes : int array }

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Sketch.create: capacity";
  { capacity; syndromes = Array.make capacity 0 }

let capacity t = t.capacity
let copy t = { t with syndromes = Array.copy t.syndromes }

let check_element e =
  if e <= 0 || e > Gf2m.mask then invalid_arg "Sketch.add: element"

let add t e =
  check_element e;
  (* Accumulate odd powers e^1, e^3, e^5, ... — the multiplier e^2 is
     fixed across the loop, so the whole walk runs as one fused kernel
     with the window table, reduction, and running power inlined. *)
  Gf2m.accum_powers ~base:e ~step:(Gf2m.sq e) t.syndromes ~n:t.capacity

(* Pairs of elements share one syndrome pass (see
   [Gf2m.accum_powers2]); element order is irrelevant since syndrome
   accumulation is xor. *)
let add_all t es =
  let rec go = function
    | [] -> ()
    | [ e ] -> add t e
    | e1 :: e2 :: rest ->
        check_element e1;
        check_element e2;
        Gf2m.accum_powers2 ~base1:e1 ~step1:(Gf2m.sq e1) ~base2:e2
          ~step2:(Gf2m.sq e2) t.syndromes ~n:t.capacity;
        go rest
  in
  go es

let fill_powers e v =
  check_element e;
  Array.fill v 0 (Array.length v) 0;
  Gf2m.accum_powers ~base:e ~step:(Gf2m.sq e) v ~n:(Array.length v)

let add_powers t v =
  if Array.length v < t.capacity then invalid_arg "Sketch.add_powers: vector";
  let s = t.syndromes in
  for i = 0 to t.capacity - 1 do
    Array.unsafe_set s i (Array.unsafe_get s i lxor Array.unsafe_get v i)
  done

let of_list ~capacity es =
  let t = create ~capacity () in
  add_all t es;
  t

let merge a b =
  if a.capacity <> b.capacity then
    invalid_arg "Sketch.merge: incompatible sketches";
  {
    a with
    syndromes = Array.init a.capacity (fun i -> a.syndromes.(i) lxor b.syndromes.(i));
  }

let truncate t ~capacity =
  if capacity <= 0 then invalid_arg "Sketch.truncate: capacity";
  if capacity >= t.capacity then t
  else { capacity; syndromes = Array.sub t.syndromes 0 capacity }

let is_empty t = Array.for_all (fun s -> s = 0) t.syndromes

(* Re-encode to rule out spurious decodes beyond capacity. *)
let reencode_check t elements =
  let check = create ~capacity:t.capacity () in
  add_all check elements;
  if Array.for_all2 ( = ) check.syndromes t.syndromes then Ok elements
  else Error `Decode_failure

let decode t =
  if is_empty t then Ok []
  else begin
    let c = t.capacity in
    (* Full syndrome sequence s_1..s_2c; even entries from Frobenius:
       s_2k = s_k^2. [ss] is 1-indexed. *)
    let ss = Array.make ((2 * c) + 1) 0 in
    for k = 1 to 2 * c do
      ss.(k) <-
        (if k land 1 = 1 then t.syndromes.((k - 1) / 2)
         else Gf2m.sq ss.(k / 2))
    done;
    let locator, l = Berlekamp_massey.run (Array.sub ss 1 (2 * c)) in
    if l = 0 || Poly.degree locator <> l then Error `Decode_failure
    else
      match Poly.roots locator with
      | None -> Error `Decode_failure
      | Some roots when List.length roots <> l -> Error `Decode_failure
      | Some roots when List.mem 0 roots -> Error `Decode_failure
      | Some roots -> reencode_check t (List.map Gf2m.inv roots)
  end

(* The wire header's field byte: the degree of GF(2^32). A syndrome is 4
   bytes, big-endian. *)
let field_bits = 32
let serialized_size t = 1 + 2 + (t.capacity * 4)

let encode w t =
  Writer.u8 w field_bits;
  Writer.u16 w t.capacity;
  Array.iter
    (fun s ->
      for i = 3 downto 0 do
        Writer.u8 w ((s lsr (8 * i)) land 0xFF)
      done)
    t.syndromes

let encode_into t buf ~pos =
  let len = serialized_size t in
  if pos < 0 || pos + len > Bytes.length buf then
    invalid_arg "Sketch.encode_into";
  Bytes.unsafe_set buf pos (Char.unsafe_chr field_bits);
  Bytes.unsafe_set buf (pos + 1) (Char.unsafe_chr ((t.capacity lsr 8) land 0xFF));
  Bytes.unsafe_set buf (pos + 2) (Char.unsafe_chr (t.capacity land 0xFF));
  let off = ref (pos + 3) in
  for i = 0 to t.capacity - 1 do
    let s = Array.unsafe_get t.syndromes i in
    for b = 3 downto 0 do
      Bytes.unsafe_set buf !off (Char.unsafe_chr ((s lsr (8 * b)) land 0xFF));
      incr off
    done
  done

let decode_wire r =
  if Reader.u8 r <> field_bits then raise (Reader.Malformed "sketch field size");
  let capacity = Reader.u16 r in
  if capacity = 0 then raise (Reader.Malformed "sketch capacity");
  (* Size the array only once the input can back it: a hostile count
     must not buy a 65,535-entry allocation from a few bytes. *)
  if Reader.remaining r < capacity * 4 then
    raise (Reader.Malformed "truncated sketch");
  let syndromes =
    Array.init capacity (fun _ ->
        let v = ref 0 in
        for _ = 1 to 4 do
          v := (!v lsl 8) lor Reader.u8 r
        done;
        !v)
  in
  { capacity; syndromes }
