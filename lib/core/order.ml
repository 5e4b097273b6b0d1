(* The key of [id] is HMAC-SHA256 under the order seed of
   varint(bundle_seq) ‖ u32(id). [sort_bundle] derives one keyed
   context per call: the pad compressions depend only on the seed, so
   sharing them halves the per-id cost (4 to 2 compressions). *)
let bundle_key hmac ~bundle_seq id =
  let w = Lo_codec.Writer.create ~initial_size:16 () in
  Lo_codec.Writer.varint w bundle_seq;
  Lo_codec.Writer.u32 w id;
  Lo_crypto.Hmac.Keyed.sha256 hmac (Lo_codec.Writer.contents w)

(* First 7 key bytes packed big-endian into an int: comparing the
   prefixes as plain ints agrees with [String.compare] on those bytes,
   and all keys are equal-length HMAC outputs, so almost every
   comparison resolves on one int compare instead of a byte-by-byte
   string walk. *)
let key_prefix k =
  let v = ref 0 in
  for i = 0 to 6 do
    v := (!v lsl 8) lor Char.code (String.unsafe_get k i)
  done;
  !v

let sort_bundle ~seed ~bundle_seq ids =
  match ids with
  | [] | [ _ ] -> ids
  | _ ->
      let hmac = Lo_crypto.Hmac.Keyed.create ~key:seed in
      let keyed =
        Array.of_list
          (List.map
             (fun id ->
               let k = bundle_key hmac ~bundle_seq id in
               (key_prefix k, k, id))
             ids)
      in
      let compare (pa, ka, ia) (pb, kb, ib) =
        if pa <> pb then Int.compare pa pb
        else
          match String.compare ka kb with 0 -> Int.compare ia ib | c -> c
      in
      Array.sort compare keyed;
      Array.fold_right (fun (_, _, id) acc -> id :: acc) keyed []

let canonical ~seed ~bundles =
  bundles
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.concat_map (fun (bundle_seq, ids) ->
         sort_bundle ~seed ~bundle_seq ids)
