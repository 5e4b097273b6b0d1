type entry = {
  tx : Tx.t;
  short_id : int;
  received_at : float;
  from_peer : string option;
}

(* One table, keyed by short id. A transaction whose short id collides
   with a stored one is refused by [add], so a full-id lookup is the
   short-id lookup plus an id comparison. *)
type t = (int, entry) Hashtbl.t

let create ?(initial_capacity = 512) () = Hashtbl.create initial_capacity
let size = Hashtbl.length

let add t ~tx ~received_at ~from_peer =
  let short_id = Tx.short_id tx in
  if Hashtbl.mem t short_id then `Duplicate
  else begin
    let entry = { tx; short_id; received_at; from_peer } in
    Hashtbl.add t short_id entry;
    `Added entry
  end

let mem_short = Hashtbl.mem
let find_short = Hashtbl.find_opt

let find_id t id =
  match Hashtbl.find_opt t (Short_id.of_txid id) with
  | Some e when String.equal e.tx.Tx.id id -> Some e
  | _ -> None

type batch_result = {
  accepted : entry list;
  invalid : (int * string) list;
  duplicates : int;
  committed : int list;
}

let ingest_batch ?(keep = fun _ -> true) ~scheme ~known ~commit ~received_at
    ~from_peer t txs =
  let txs = Array.of_list txs in
  let n = Array.length txs in
  (* Bounds checks first; survivors go through one batched signature
     verification (amortized point operations for Schnorr, one registry
     probe per origin for the simulation scheme). A survivor this node
     already holds by full id and has committed is left out: the id is
     SHA-256 over the unsigned bytes and the signature, so it is
     byte-identical to a transaction whose signature was checked before
     [add] stored it. *)
  let reasons = Array.make n None in
  let pending_rev = ref [] in
  Array.iteri
    (fun i tx ->
      match Tx.check_bounds tx with
      | Error r -> reasons.(i) <- Some r
      | Ok () ->
          if not (find_id t tx.Tx.id <> None && known (Tx.short_id tx)) then
            pending_rev := i :: !pending_rev)
    txs;
  let pending = Array.of_list (List.rev !pending_rev) in
  let triples =
    Array.map
      (fun i ->
        let tx = txs.(i) in
        (tx.Tx.origin, Tx.unsigned_bytes tx, tx.Tx.signature))
      pending
  in
  List.iter
    (fun j -> reasons.(pending.(j)) <- Some "invalid signature")
    (Lo_crypto.Signer.verify_many scheme triples);
  (* Admission in batch order; the fresh short ids are committed as ONE
     bundle, so the commitment log signs a single digest per batch. *)
  let accepted_rev = ref [] and invalid_rev = ref [] in
  let duplicates = ref 0 in
  let fresh_rev = ref [] in
  (* Made at the first id that is not [known]: when peers send content
     for ids already committed, as they do in Stage II, it never is. *)
  let in_batch = lazy (Hashtbl.create (2 * n)) in
  Array.iteri
    (fun i tx ->
      match reasons.(i) with
      | Some r -> invalid_rev := (i, r) :: !invalid_rev
      | None ->
          if keep tx then begin
            let short = Tx.short_id tx in
            (if not (known short) then
               let in_batch = Lazy.force in_batch in
               if not (Hashtbl.mem in_batch short) then begin
                 Hashtbl.add in_batch short ();
                 fresh_rev := short :: !fresh_rev
               end);
            match add t ~tx ~received_at ~from_peer with
            | `Added e -> accepted_rev := e :: !accepted_rev
            | `Duplicate -> incr duplicates
          end)
    txs;
  let committed = List.rev !fresh_rev in
  if committed <> [] then commit committed;
  {
    accepted = List.rev !accepted_rev;
    invalid = List.rev !invalid_rev;
    duplicates = !duplicates;
    committed;
  }
