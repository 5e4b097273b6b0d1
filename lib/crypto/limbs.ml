(* Little-endian arbitrary-length naturals over 16-bit limbs stored in
   native ints. 16-bit limbs keep every intermediate product and carry
   comfortably inside OCaml's 63-bit integers. Internal module: Uint256
   builds its comparisons and modular add/sub on it, and Scalar its
   fixed-n folds. *)

let limb_bits = 16
let limb_mask = 0xFFFF

let is_zero a =
  let rec go i = i < 0 || (a.(i) = 0 && go (i - 1)) in
  go (Array.length a - 1)

(* Value comparison, lengths may differ. *)
let compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i < 0 then 0
    else
      let xa = if i < la then a.(i) else 0 in
      let xb = if i < lb then b.(i) else 0 in
      if xa <> xb then Stdlib.compare xa xb else go (i - 1)
  in
  go (max la lb - 1)

(* a + b, result has [max la lb + 1] limbs. *)
let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  out.(n) <- !carry;
  out

(* a - b; requires a >= b. Result has [length a] limbs. *)
let sub a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + limb_mask + 1;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  if !borrow <> 0 then invalid_arg "Limbs.sub: negative result";
  out

(* Schoolbook product, [la + lb] limbs. *)
let mul a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    if a.(i) <> 0 then begin
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let t = out.(i + j) + (a.(i) * b.(j)) + !carry in
        out.(i + j) <- t land limb_mask;
        carry := t lsr limb_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let t = out.(!k) + !carry in
        out.(!k) <- t land limb_mask;
        carry := t lsr limb_bits;
        incr k
      done
    end
  done;
  out

let num_bits a =
  let rec top i = if i < 0 then -1 else if a.(i) <> 0 then i else top (i - 1) in
  match top (Array.length a - 1) with
  | -1 -> 0
  | i ->
      let v = a.(i) in
      let rec width w = if v lsr w = 0 then w else width (w + 1) in
      (i * limb_bits) + width 1

let bit a i =
  let limb = i / limb_bits in
  if limb >= Array.length a then false
  else a.(limb) lsr (i mod limb_bits) land 1 = 1

(* Fit into exactly [n] limbs (value must fit). *)
let resize a n =
  let la = Array.length a in
  for i = n to la - 1 do
    if a.(i) <> 0 then invalid_arg "Limbs.resize: overflow"
  done;
  let out = Array.make n 0 in
  Array.blit a 0 out 0 (min n la);
  out
