(* The reference SHA-256 compressor: the kernel the library ran on
   before the doubled-word rotations. Every rotation is a textbook
   [rotr] (two shifts, an or and a mask), every round value is masked
   back to 32 bits, and Ch/Maj are written as in FIPS 180-4 §4.1.2.
   [Lo_crypto.Sha256] must agree with [digest] here on every message
   and every split of a message into [feed]/[feed_bytes] calls. *)

let mask = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes fed *)
}

(* The 64-entry message schedule is pure per-block scratch: it carries no
   state between blocks, so one array per domain serves every context.
   Keeping it out of [ctx] makes [init]/[copy] cheap — the ingest hot
   path creates short-lived contexts (tx ids, HMAC midstate copies) at a
   rate where a 64-word allocation per context shows up in GC time. *)
let w_key = Domain.DLS.new_key (fun () -> Array.make 64 0)

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
  }

let copy ctx =
  {
    h = Array.copy ctx.h;
    buf = Bytes.copy ctx.buf;
    buf_len = ctx.buf_len;
    total = ctx.total;
  }

let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

let compress h (w : int array) block off =
  (* Bounds are established once by the callers ([feed_bytes] validates
     the whole range), so the schedule expansion and state walk use
     unchecked accesses; the block itself is loaded eight bytes at a
     time ([get_int64_be] keeps its own cheap bounds check). *)
  for i = 0 to 7 do
    let v = Bytes.get_int64_be block (off + (8 * i)) in
    (* A logical shift before [to_int] — the straight 64-to-63-bit
       truncation would drop bit 63, the top bit of the first byte. *)
    Array.unsafe_set w (2 * i) (Int64.to_int (Int64.shift_right_logical v 32));
    Array.unsafe_set w ((2 * i) + 1) (Int64.to_int v land mask)
  done;
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) and w2 = Array.unsafe_get w (i - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
    let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land mask)
  done;
  (* Eight rounds per iteration, written out with the working variables
     rebound through shifted positions — straight-line SSA the compiler
     keeps in registers, with no per-round a..h shuffle. The refs are
     only touched at the 8-round seams and never escape into a closure,
     so they stay unboxed. *)
  let ra = ref h.(0)
  and rb = ref h.(1)
  and rc = ref h.(2)
  and rd = ref h.(3)
  and re = ref h.(4)
  and rf = ref h.(5)
  and rg = ref h.(6)
  and rh = ref h.(7) in
  for i = 0 to 7 do
    let base = 8 * i in
    let a = !ra and b = !rb and c = !rc and d = !rd in
    let e = !re and f = !rf and g = !rg and hv = !rh in
    let t1 =
      (hv
      + (rotr e 6 lxor rotr e 11 lxor rotr e 25)
      + (e land f lxor (lnot e land g))
      + Array.unsafe_get k base + Array.unsafe_get w base)
      land mask
    in
    let t2 =
      ((rotr a 2 lxor rotr a 13 lxor rotr a 22)
      + (a land b lxor (a land c) lxor (b land c)))
      land mask
    in
    let hv = g and g = f and f = e and e = (d + t1) land mask in
    let d = c and c = b and b = a and a = (t1 + t2) land mask in
    let t1 =
      (hv
      + (rotr e 6 lxor rotr e 11 lxor rotr e 25)
      + (e land f lxor (lnot e land g))
      + Array.unsafe_get k (base + 1)
      + Array.unsafe_get w (base + 1))
      land mask
    in
    let t2 =
      ((rotr a 2 lxor rotr a 13 lxor rotr a 22)
      + (a land b lxor (a land c) lxor (b land c)))
      land mask
    in
    let hv = g and g = f and f = e and e = (d + t1) land mask in
    let d = c and c = b and b = a and a = (t1 + t2) land mask in
    let t1 =
      (hv
      + (rotr e 6 lxor rotr e 11 lxor rotr e 25)
      + (e land f lxor (lnot e land g))
      + Array.unsafe_get k (base + 2)
      + Array.unsafe_get w (base + 2))
      land mask
    in
    let t2 =
      ((rotr a 2 lxor rotr a 13 lxor rotr a 22)
      + (a land b lxor (a land c) lxor (b land c)))
      land mask
    in
    let hv = g and g = f and f = e and e = (d + t1) land mask in
    let d = c and c = b and b = a and a = (t1 + t2) land mask in
    let t1 =
      (hv
      + (rotr e 6 lxor rotr e 11 lxor rotr e 25)
      + (e land f lxor (lnot e land g))
      + Array.unsafe_get k (base + 3)
      + Array.unsafe_get w (base + 3))
      land mask
    in
    let t2 =
      ((rotr a 2 lxor rotr a 13 lxor rotr a 22)
      + (a land b lxor (a land c) lxor (b land c)))
      land mask
    in
    let hv = g and g = f and f = e and e = (d + t1) land mask in
    let d = c and c = b and b = a and a = (t1 + t2) land mask in
    let t1 =
      (hv
      + (rotr e 6 lxor rotr e 11 lxor rotr e 25)
      + (e land f lxor (lnot e land g))
      + Array.unsafe_get k (base + 4)
      + Array.unsafe_get w (base + 4))
      land mask
    in
    let t2 =
      ((rotr a 2 lxor rotr a 13 lxor rotr a 22)
      + (a land b lxor (a land c) lxor (b land c)))
      land mask
    in
    let hv = g and g = f and f = e and e = (d + t1) land mask in
    let d = c and c = b and b = a and a = (t1 + t2) land mask in
    let t1 =
      (hv
      + (rotr e 6 lxor rotr e 11 lxor rotr e 25)
      + (e land f lxor (lnot e land g))
      + Array.unsafe_get k (base + 5)
      + Array.unsafe_get w (base + 5))
      land mask
    in
    let t2 =
      ((rotr a 2 lxor rotr a 13 lxor rotr a 22)
      + (a land b lxor (a land c) lxor (b land c)))
      land mask
    in
    let hv = g and g = f and f = e and e = (d + t1) land mask in
    let d = c and c = b and b = a and a = (t1 + t2) land mask in
    let t1 =
      (hv
      + (rotr e 6 lxor rotr e 11 lxor rotr e 25)
      + (e land f lxor (lnot e land g))
      + Array.unsafe_get k (base + 6)
      + Array.unsafe_get w (base + 6))
      land mask
    in
    let t2 =
      ((rotr a 2 lxor rotr a 13 lxor rotr a 22)
      + (a land b lxor (a land c) lxor (b land c)))
      land mask
    in
    let hv = g and g = f and f = e and e = (d + t1) land mask in
    let d = c and c = b and b = a and a = (t1 + t2) land mask in
    let t1 =
      (hv
      + (rotr e 6 lxor rotr e 11 lxor rotr e 25)
      + (e land f lxor (lnot e land g))
      + Array.unsafe_get k (base + 7)
      + Array.unsafe_get w (base + 7))
      land mask
    in
    let t2 =
      ((rotr a 2 lxor rotr a 13 lxor rotr a 22)
      + (a land b lxor (a land c) lxor (b land c)))
      land mask
    in
    ra := (t1 + t2) land mask;
    rb := a;
    rc := b;
    rd := c;
    re := (d + t1) land mask;
    rf := e;
    rg := f;
    rh := g
  done;
  h.(0) <- (h.(0) + !ra) land mask;
  h.(1) <- (h.(1) + !rb) land mask;
  h.(2) <- (h.(2) + !rc) land mask;
  h.(3) <- (h.(3) + !rd) land mask;
  h.(4) <- (h.(4) + !re) land mask;
  h.(5) <- (h.(5) + !rf) land mask;
  h.(6) <- (h.(6) + !rg) land mask;
  h.(7) <- (h.(7) + !rh) land mask

let feed_bytes ctx b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Sha256.feed_bytes";
  ctx.total <- ctx.total + len;
  let w = Domain.DLS.get w_key in
  let pos = ref off and remaining = ref len in
  (* Top up a partially filled block buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit b !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx.h w ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx.h w b !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit b !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let feed ctx s =
  feed_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let finalize ctx =
  let bit_len = ctx.total * 8 in
  let pad_len =
    let rem = (ctx.total + 1 + 8) mod 64 in
    if rem = 0 then 1 else 1 + (64 - rem)
  in
  let tail = Bytes.make (pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  for i = 0 to 7 do
    Bytes.set tail
      (pad_len + i)
      (Char.chr ((bit_len lsr (8 * (7 - i))) land 0xff))
  done;
  (* Bypass [total] accounting: feed the padding directly. *)
  let saved = ctx.total in
  feed_bytes ctx tail 0 (Bytes.length tail);
  ctx.total <- saved;
  assert (ctx.buf_len = 0);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let digest_list parts =
  let ctx = init () in
  List.iter (feed ctx) parts;
  finalize ctx

let hash_to_int s =
  let d = digest s in
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v land max_int
