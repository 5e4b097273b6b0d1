exception Malformed of string

(* [pos] and [limit] are absolute offsets into [data]; a reader over a
   whole string has [limit = String.length data], a sub-view narrows
   both without copying. *)
type t = { data : string; mutable pos : int; limit : int }

let of_string data = { data; pos = 0; limit = String.length data }

let of_substring data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length data then
    invalid_arg "Reader.of_substring";
  { data; pos; limit = pos + len }

let remaining t = t.limit - t.pos
let at_end t = remaining t = 0
let pos t = t.pos

let need t n what =
  if remaining t < n then raise (Malformed ("truncated " ^ what))

let slice t ~from ~until =
  if from < 0 || until < from || until > t.limit then
    invalid_arg "Reader.slice";
  String.sub t.data from (until - from)

let sub_view t n =
  need t n "sub-view";
  let v = { data = t.data; pos = t.pos; limit = t.pos + n } in
  t.pos <- t.pos + n;
  v

let u8 t =
  need t 1 "u8";
  let v = Char.code t.data.[t.pos] in
  t.pos <- t.pos + 1;
  v

let u16 t =
  need t 2 "u16";
  let v = (Char.code t.data.[t.pos] lsl 8) lor Char.code t.data.[t.pos + 1] in
  t.pos <- t.pos + 2;
  v

let u32 t =
  need t 4 "u32";
  let v = ref 0 in
  for i = 0 to 3 do
    v := (!v lsl 8) lor Char.code t.data.[t.pos + i]
  done;
  t.pos <- t.pos + 4;
  !v

let u64 t =
  need t 8 "u64";
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code t.data.[t.pos + i]
  done;
  if !v < 0 then raise (Malformed "u64 overflows OCaml int");
  t.pos <- t.pos + 8;
  !v

let varint t =
  let rec go shift acc =
    if shift > 56 then raise (Malformed "varint too long");
    need t 1 "varint";
    let b = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    (* Bits from 2^62 up would wrap to a negative int. *)
    if shift = 56 && b land 0x40 <> 0 then raise (Malformed "varint too long");
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let fixed t n =
  need t n "fixed bytes";
  let s = String.sub t.data t.pos n in
  t.pos <- t.pos + n;
  s

let skip t n =
  need t n "fixed bytes";
  t.pos <- t.pos + n

let bytes t =
  let n = varint t in
  fixed t n

let list t decode =
  let n = varint t in
  if n > remaining t then raise (Malformed "list count exceeds input");
  List.init n (fun _ -> decode t)

let expect_end t = if not (at_end t) then raise (Malformed "trailing bytes")
