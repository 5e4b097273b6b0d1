(* A public key keeps its point next to the 33-byte encoding the
   challenge hashes, so neither verifier re-normalises or re-encodes it;
   a secret key keeps its public key, so signing does no fixed-base
   multiplication for it. *)
type public_key = { point : Secp256k1.point; bytes : string }
type secret_key = { scalar : Scalar.t; public : public_key }

(* Hash arbitrary bytes onto the scalar field, rejecting 0. *)
let hash_to_scalar parts =
  let rec go parts =
    let s = Scalar.reduce (Scalar.of_bytes_be (Sha256.digest_list parts)) in
    if Scalar.is_zero s then go (parts @ [ "retry" ]) else s
  in
  go parts

let keypair_of_seed seed =
  let scalar = hash_to_scalar [ "lo-keygen"; seed ] in
  let point = Secp256k1.mul_g scalar in
  let public = { point; bytes = Secp256k1.encode_compressed point } in
  ({ scalar; public }, public)

let public_key sk = sk.public
let public_key_bytes pk = pk.bytes

let public_key_of_bytes s =
  match Secp256k1.decode_compressed s with
  | Some point when not (Secp256k1.is_infinity point) ->
      Some { point; bytes = s }
  | Some _ | None -> None

(* [rx] is R.x's 32 bytes as signed. *)
let challenge ~rx ~pk_bytes msg =
  hash_to_scalar [ "lo-schnorr"; rx; pk_bytes; msg ]

let sign sk msg =
  let k = hash_to_scalar [ "lo-nonce"; Scalar.to_bytes_be sk.scalar; msg ] in
  let rx =
    match Secp256k1.to_affine (Secp256k1.mul_g k) with
    | Some (x, _) -> Fe.to_bytes_be x
    | None -> invalid_arg "Schnorr: unexpected point at infinity"
  in
  let e = challenge ~rx ~pk_bytes:sk.public.bytes msg in
  let s = Scalar.add k (Scalar.mul e sk.scalar) in
  rx ^ Scalar.to_bytes_be s

(* A signature's R.x bytes, R.x and s; [None] unless it is 64 bytes
   with s < n and R.x < p. *)
let parse signature =
  if String.length signature <> 64 then None
  else
    let s = Scalar.of_bytes_be (String.sub signature 32 32) in
    if Scalar.compare s Scalar.n >= 0 then None
    else
      let rx = String.sub signature 0 32 in
      Option.map (fun x -> (rx, x, s)) (Fe.of_canonical_bytes rx)

(* The reference verifier: the generic double-and-add ladder, one
   signature at a time. [batch_verify] must agree with this on every
   index (qcheck-pinned), and its bisection path re-checks every blamed
   index here before naming a signer. *)
let verify pk ~msg ~signature =
  match parse signature with
  | None -> false
  | Some (rx, x, s) ->
      let e = challenge ~rx ~pk_bytes:pk.bytes msg in
      (* R' = s*G - e*P should equal the R whose x-coordinate was signed. *)
      let r' =
        Secp256k1.add (Secp256k1.mul s Secp256k1.g)
          (Secp256k1.neg (Secp256k1.mul e pk.point))
      in
      Secp256k1.has_x r' x

(* --- Batch verification.

   There is no sound random-linear-combination aggregate here: [verify]
   accepts either y-parity of R (only R.x is signed), so the R_i cannot
   be reconstituted as group elements to sum. The batch path instead
   amortises the expensive parts per signature — one chain of doublings
   for s*G - e*P against a per-domain comb of G, one table per public
   key, and a projective x-check with no inversion — and reports only
   "chunk clean" / "chunk dirty". A key that signs at least
   [comb_min_uses] of a chunk's signatures gets a comb (32 doublings
   per check), kept in a bounded per-domain cache so its later chunks
   pay nothing to build it; the others get width-5 wNAF tables on the
   GLV chain (~128 doublings), built per chunk. The checks of a range
   then fan out over [Fanout]'s helper domains; tables and cache stay
   with the calling domain. A dirty chunk is bisected with the same
   kernel, and a signer is blamed only after the reference [verify]
   confirms the leaf, so accountability never rests on the fast path.
   --- *)

(* The break-even, from the field operation counts (multiplications
   and squarings) of [Secp256k1]: a comb costs about 6.1k to build
   against about 0.4k for a wNAF table, and each check under it then
   costs about 930 instead of 1,680, so it pays back after
   (6.1k - 0.4k) / 750 = 7.6 uses. *)
let comb_min_uses = 8

(* A comb is 255 affine entries of two 10-limb coordinates: 2 x 11
   words plus a 3-word record, 200 bytes an entry, about 51 KB a key.
   32 keys is then about 1.6 MB per domain, next to the 0.5 MB of
   [Secp256k1.mul_g]'s table. *)
let comb_cache_size = 32

(* Keyed by the 33-byte encoding. The encoding determines the point
   ([Secp256k1.decode_compressed] rejects x >= p) and [public_key] is
   abstract, so a key cannot disagree with its cached table. Eviction
   is FIFO: a full cache drops its oldest entry, and a hit touches
   nothing. One cache per domain, so nothing here is shared mutable
   state. *)
type comb_cache = {
  combs : (string, Secp256k1.precomp) Hashtbl.t;
  order : string Queue.t;
}

let comb_cache_key =
  Domain.DLS.new_key (fun () ->
      { combs = Hashtbl.create comb_cache_size; order = Queue.create () })

let cache_comb cache pk =
  if Queue.length cache.order >= comb_cache_size then
    Hashtbl.remove cache.combs (Queue.pop cache.order);
  let tbl = Secp256k1.comb pk.point in
  Hashtbl.add cache.combs pk.bytes tbl;
  Queue.push pk.bytes cache.order;
  tbl

let kernel_one table pk msg signature =
  match parse signature with
  | None -> false
  | Some (rx, x, s) ->
      let e = challenge ~rx ~pk_bytes:pk.bytes msg in
      (* s*G - e*P = s*G + (n - e)*P on the prime-order group. *)
      Secp256k1.has_x
        (Secp256k1.mul_add_precomp ~g_scalar:s (Scalar.neg e) table)
        x

(* A range's checks are split into parts of at least [part_min]
   signatures, one per domain [Fanout] can run at once; below two
   parts' worth the range runs in the caller. A check costs about
   0.1 ms and a helper starts about 0.1 ms after the caller, so a part
   of 4 still pays. *)
let part_min = 4
let default_parts len = min (Fanout.width ()) (len / part_min)

(* True iff every signature in [lo, hi) passes the fast kernel. A key
   takes its cached comb if it has one, whatever its uses here; else a
   comb, cached, if it signs at least [comb_min_uses] of the range;
   else a wNAF table kept for this range only. Every table is resolved
   here, in the calling domain and in index order, before any check
   runs; then [parts len] contiguous parts of the checks run through
   [Fanout], which only read the tables and the triples. *)
let kernel_range ~parts sigs lo hi =
  let cache = Domain.DLS.get comb_cache_key in
  let uses = Hashtbl.create 4 in
  for i = lo to hi - 1 do
    let pk, _, _ = sigs.(i) in
    let k = Option.value ~default:0 (Hashtbl.find_opt uses pk.bytes) in
    Hashtbl.replace uses pk.bytes (k + 1)
  done;
  let tables = Hashtbl.create 4 in
  let table pk =
    match Hashtbl.find_opt tables pk.bytes with
    | Some tbl -> tbl
    | None ->
        let tbl =
          match Hashtbl.find_opt cache.combs pk.bytes with
          | Some tbl -> tbl
          | None ->
              if Hashtbl.find uses pk.bytes >= comb_min_uses then
                cache_comb cache pk
              else Secp256k1.precompute pk.point
        in
        Hashtbl.add tables pk.bytes tbl;
        tbl
  in
  let len = hi - lo in
  let by_index =
    Array.init len (fun j ->
        let pk, _, _ = sigs.(lo + j) in
        table pk)
  in
  let k = max 1 (min len (parts len)) in
  Fanout.for_all k (fun part ->
      let rec go j stop =
        j >= stop
        ||
        let pk, msg, signature = sigs.(lo + j) in
        kernel_one by_index.(j) pk msg signature && go (j + 1) stop
      in
      go (part * len / k) ((part + 1) * len / k))

let kernel_accepts sigs =
  kernel_range ~parts:default_parts sigs 0 (Array.length sigs)

let cached_comb_keys () =
  List.of_seq (Queue.to_seq (Domain.DLS.get comb_cache_key).order)

let reference_invalid sigs lo hi =
  let bad = ref [] in
  for i = hi - 1 downto lo do
    let pk, msg, signature = sigs.(i) in
    if not (verify pk ~msg ~signature) then bad := i :: !bad
  done;
  !bad

(* [lo, hi) failed the kernel: narrow with the kernel, blame with the
   reference verifier. If the halves disagree with the parent (a fast
   path bug rather than a bad signature), fall back to scanning the
   range with [verify] so the outcome is still the reference one. *)
let rec bisect ~parts sigs lo hi =
  if hi - lo <= 1 then reference_invalid sigs lo hi
  else begin
    let mid = (lo + hi) / 2 in
    let left_ok = kernel_range ~parts sigs lo mid in
    let right_ok = kernel_range ~parts sigs mid hi in
    if left_ok && right_ok then reference_invalid sigs lo hi
    else
      (if left_ok then [] else bisect ~parts sigs lo mid)
      @ if right_ok then [] else bisect ~parts sigs mid hi
  end

let batch_chunk = 32

(* Chunks run in order, so a key's first comb-eligible chunk fills the
   cache for the chunks after it. Bisection yields each range's indices
   in order, so the result is sorted. *)
let batch_verify_with ~parts sigs =
  let count = Array.length sigs in
  let bad = ref [] in
  for c = 0 to ((count + batch_chunk - 1) / batch_chunk) - 1 do
    let lo = c * batch_chunk in
    let hi = min count (lo + batch_chunk) in
    if not (kernel_range ~parts sigs lo hi) then
      bad := bisect ~parts sigs lo hi :: !bad
  done;
  match List.concat (List.rev !bad) with
  | [] -> `All_valid
  | bad -> `Invalid bad

let batch_verify sigs = batch_verify_with ~parts:default_parts sigs

let batch_verify_parts ~parts sigs =
  batch_verify_with ~parts:(fun _ -> parts) sigs
