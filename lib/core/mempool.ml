type entry = {
  tx : Tx.t;
  short_id : int;
  received_at : float;
  from_peer : string option;
}

type t = {
  by_short : (int, entry) Hashtbl.t;
  by_id : (string, entry) Hashtbl.t;
  mutable arrival_rev : entry list;
  mutable payload_bytes : int;
}

let create ?(initial_capacity = 512) () =
  {
    by_short = Hashtbl.create initial_capacity;
    by_id = Hashtbl.create initial_capacity;
    arrival_rev = [];
    payload_bytes = 0;
  }

let size t = Hashtbl.length t.by_short

let add t ~tx ~received_at ~from_peer =
  let short_id = Tx.short_id tx in
  if Hashtbl.mem t.by_short short_id then `Duplicate
  else begin
    let entry = { tx; short_id; received_at; from_peer } in
    Hashtbl.add t.by_short short_id entry;
    Hashtbl.add t.by_id tx.Tx.id entry;
    t.arrival_rev <- entry :: t.arrival_rev;
    t.payload_bytes <- t.payload_bytes + Tx.encoded_size tx;
    `Added entry
  end

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
          if not (Hashtbl.mem t.by_id tx.Tx.id && known (Tx.short_id tx)) then
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

let mem_short t short_id = Hashtbl.mem t.by_short short_id
let find_short t short_id = Hashtbl.find_opt t.by_short short_id
let find_id t id = Hashtbl.find_opt t.by_id id
let entries_in_arrival_order t = List.rev t.arrival_rev
let total_payload_bytes t = t.payload_bytes
