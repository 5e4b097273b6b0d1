type t = { id : string; sign : string -> string }

type scheme = {
  make : seed:string -> t;
  verify : id:string -> msg:string -> signature:string -> bool;
  verify_many : (string * string * string) array -> int list;
}

let id t = t.id
let sign t msg = t.sign msg
let make scheme ~seed = scheme.make ~seed
let verify scheme ~id ~msg ~signature = scheme.verify ~id ~msg ~signature
let verify_many scheme sigs = scheme.verify_many sigs
let id_size = 33
let signature_size = 64

let schnorr =
  let verify ~id ~msg ~signature =
    match Schnorr.public_key_of_bytes id with
    | None -> false
    | Some pk -> Schnorr.verify pk ~msg ~signature
  in
  let verify_many sigs =
    (* Each distinct id is decoded once per call (a decode is a field
       square root); undecodable ids are invalid outright, the rest go
       through the batch kernel with indices mapped back to the
       caller's. *)
    let keys = Hashtbl.create 8 in
    let decode id =
      match Hashtbl.find_opt keys id with
      | Some pk -> pk
      | None ->
          let pk = Schnorr.public_key_of_bytes id in
          Hashtbl.add keys id pk;
          pk
    in
    let bad_ids = ref [] in
    let decoded = ref [] in
    Array.iteri
      (fun i (id, msg, signature) ->
        match decode id with
        | None -> bad_ids := i :: !bad_ids
        | Some pk -> decoded := (i, (pk, msg, signature)) :: !decoded)
      sigs;
    let decoded = Array.of_list (List.rev !decoded) in
    let bad =
      match Schnorr.batch_verify (Array.map snd decoded) with
      | `All_valid -> []
      | `Invalid l -> List.map (fun j -> fst decoded.(j)) l
    in
    List.sort_uniq compare (List.rev_append !bad_ids bad)
  in
  {
    make =
      (fun ~seed ->
        let sk, pk = Schnorr.keypair_of_seed seed in
        { id = Schnorr.public_key_bytes pk; sign = Schnorr.sign sk });
    verify;
    verify_many;
  }

(* A valid simulation signature is tag ^ 32 zero bytes; checking in
   place avoids reassembling that 64-byte string per verification. *)
let sim_signature_matches ~tag signature =
  let ok = ref (String.length signature = 64) in
  if !ok then begin
    for i = 0 to 31 do
      if signature.[i] <> tag.[i] then ok := false
    done;
    for i = 32 to 63 do
      if signature.[i] <> '\000' then ok := false
    done
  end;
  !ok

let simulation () =
  (* id -> keyed-HMAC registry, local to this scheme instance. The
     midstate cache is built once per signer, so each verification
     costs two SHA-256 compressions instead of four. *)
  let registry : (string, Hmac.Keyed.t) Hashtbl.t = Hashtbl.create 64 in
  let make ~seed =
    let key = Sha256.digest_list [ "sim-signer-key"; seed ] in
    let id = "\x01" ^ Sha256.digest_list [ "sim-signer-id"; seed ] in
    let keyed = Hmac.Keyed.create ~key in
    Hashtbl.replace registry id keyed;
    let sign msg =
      let tag = Hmac.Keyed.sha256 keyed msg in
      tag ^ String.make 32 '\000'
    in
    { id; sign }
  in
  let verify ~id ~msg ~signature =
    String.length signature = 64
    &&
    match Hashtbl.find_opt registry id with
    | None -> false
    | Some keyed ->
        sim_signature_matches ~tag:(Hmac.Keyed.sha256 keyed msg) signature
  in
  let verify_many sigs =
    let bad = ref [] in
    for i = Array.length sigs - 1 downto 0 do
      let id, msg, signature = sigs.(i) in
      if not (verify ~id ~msg ~signature) then bad := i :: !bad
    done;
    !bad
  in
  { make; verify; verify_many }
