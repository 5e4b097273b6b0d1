module Sha256 = Lo_crypto.Sha256

type direction = Left | Right
type proof = { leaf_index : int; path : (direction * string) list }

let leaf_hash data = Sha256.digest_list [ "\x00"; data ]
let node_hash l r = Sha256.digest_list [ "\x01"; l; r ]
let empty_root = Sha256.digest "lo-merkle-empty"

let level_up hashes =
  let n = Array.length hashes in
  let m = (n + 1) / 2 in
  Array.init m (fun i ->
      let l = hashes.(2 * i) in
      let r = if (2 * i) + 1 < n then hashes.((2 * i) + 1) else l in
      node_hash l r)

let root leaves =
  match leaves with
  | [] -> empty_root
  | _ ->
      let hashes = ref (Array.of_list (List.map leaf_hash leaves)) in
      while Array.length !hashes > 1 do
        hashes := level_up !hashes
      done;
      !hashes.(0)

let proof leaves index =
  let n = List.length leaves in
  if index < 0 || index >= n then invalid_arg "Merkle.proof: index out of range";
  let hashes = ref (Array.of_list (List.map leaf_hash leaves)) in
  let i = ref index in
  let path = ref [] in
  while Array.length !hashes > 1 do
    let level = !hashes in
    let len = Array.length level in
    let sibling_index = if !i mod 2 = 0 then !i + 1 else !i - 1 in
    let sibling =
      if sibling_index < len then level.(sibling_index) else level.(!i)
    in
    let dir = if !i mod 2 = 0 then Right else Left in
    path := (dir, sibling) :: !path;
    hashes := level_up level;
    i := !i / 2
  done;
  { leaf_index = index; path = List.rev !path }

let verify ~root:expected ~leaf proof =
  let h = ref (leaf_hash leaf) in
  List.iter
    (fun (dir, sibling) ->
      h :=
        match dir with
        | Left -> node_hash sibling !h
        | Right -> node_hash !h sibling)
    proof.path;
  String.equal !h expected
