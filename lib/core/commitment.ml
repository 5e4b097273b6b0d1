module Writer = Lo_codec.Writer
module Reader = Lo_codec.Reader
module Signer = Lo_crypto.Signer
module Bloom_clock = Lo_bloom.Bloom_clock
module Sketch = Lo_sketch.Sketch

type digest = {
  owner : string;
  seq : int;
  counter : int;
  clock : Bloom_clock.t;
  sketch_hash : string;
  sketch : Sketch.t option;
  signature : string;
}

let default_sketch_capacity = 250
let default_clock_cells = 32

let sketch_bytes sketch =
  let w = Writer.create ~initial_size:64 () in
  Sketch.encode w sketch;
  Writer.contents w

let hash_sketch sketch = Lo_crypto.Sha256.digest (sketch_bytes sketch)

let encode_unsigned w d =
  Writer.fixed w d.owner;
  Writer.varint w d.seq;
  Writer.varint w d.counter;
  Bloom_clock.encode w d.clock;
  Writer.fixed w d.sketch_hash

let encode w d =
  encode_unsigned w d;
  (match d.sketch with
  | None -> Writer.u8 w 0
  | Some sketch ->
      Writer.u8 w 1;
      Sketch.encode w sketch);
  Writer.fixed w d.signature

let decode r =
  let owner = Reader.fixed r Signer.id_size in
  let seq = Reader.varint r in
  let counter = Reader.varint r in
  let clock = Bloom_clock.decode r in
  let sketch_hash = Reader.fixed r 32 in
  let sketch =
    match Reader.u8 r with
    | 0 -> None
    | 1 -> Some (Sketch.decode_wire r)
    | _ -> raise (Reader.Malformed "digest sketch flag")
  in
  let signature = Reader.fixed r Signer.signature_size in
  { owner; seq; counter; clock; sketch_hash; sketch; signature }

let encoded_size d =
  let w = Writer.create () in
  encode w d;
  Writer.length w

let signing_bytes d =
  let w = Writer.create () in
  encode_unsigned w d;
  Writer.contents w

let verify scheme d =
  Signer.verify scheme ~id:d.owner ~msg:(signing_bytes d)
    ~signature:d.signature
  &&
  match d.sketch with
  | None -> true
  | Some sketch -> String.equal (hash_sketch sketch) d.sketch_hash

let strip_sketch d = { d with sketch = None }
let is_full d = d.sketch <> None

let equal_content a b = String.equal (signing_bytes a) (signing_bytes b)

type consistency =
  | Consistent of int list
  | Plausible
  | Inconsistent
  | Inconclusive

let sketch_difference ~estimate a b =
  let capacity = Sketch.capacity a in
  let merged_at c =
    Sketch.merge (Sketch.truncate a ~capacity:c) (Sketch.truncate b ~capacity:c)
  in
  let small = min capacity (estimate + 8) in
  match Sketch.decode (merged_at small) with
  | Ok diff -> Ok diff
  | Error `Decode_failure when small < capacity ->
      Sketch.decode (merged_at capacity)
  | Error `Decode_failure -> Error `Decode_failure

let check_extension ?(max_decode = max_int) ~older ~newer () =
  if not (String.equal older.owner newer.owner) then
    invalid_arg "Commitment.check_extension: different owners";
  if older.seq > newer.seq then
    invalid_arg "Commitment.check_extension: wrong digest order";
  if older.seq = newer.seq then
    if equal_content older newer then Consistent [] else Inconsistent
  else if newer.counter <= older.counter then Inconsistent
  else if not (Bloom_clock.dominates newer.clock older.clock) then Inconsistent
  else begin
    let estimate = Bloom_clock.estimate_difference older.clock newer.clock in
    match (older.sketch, newer.sketch) with
    | Some so, Some sn when estimate <= max_decode -> begin
        (* The Bloom clock bounds the difference (exactly, for an honest
           extension), so a truncated — much cheaper — sketch prefix is
           tried first, escalating to the full capacity on failure. *)
        match sketch_difference ~estimate so sn with
        | Error `Decode_failure -> Inconclusive
        | Ok diff ->
            if List.length diff <> newer.counter - older.counter then
              Inconsistent
            else Consistent diff
      end
    | _ -> Plausible
  end

module Log = struct
  type bundle = { seq : int; source : string option; ids : int list }

  type t = {
    signer : Signer.t;
    sketch_capacity : int;
    clock_cells : int;
    digest_history : int;
        (* digests older than [seq - digest_history] keep only their
           light form — the capacity-sized sketch copy (the dominant
           per-snapshot cost) is dropped once nothing can still ask for
           it. [max_int] = retain every sketch (the default; historical
           full digests are served on the wire, so bounding them is an
           explicit opt-in of scale harnesses). *)
    mutable bundles_rev : bundle list;
    mutable current : digest; (* snapshot after the latest bundle *)
    mutable counter : int;
    mutable seq : int;
    clock : Bloom_clock.t;
    sketch : Sketch.t;
    known : Dedup_set.t;
    cells : int list array; (* ids per Bloom-clock cell, reverse order *)
    mutable ids : int array;
        (* every committed id in commitment order; the first [counter]
           slots are live *)
    sketch_buf : Bytes.t;
        (* the sketch's wire encoding, refreshed in place on every
           snapshot — hashing feeds these bytes directly instead of
           re-serializing through a fresh Writer each time *)
    digest_index : (int, digest) Hashtbl.t; (* digests keyed by seq *)
    tx_pool : Interner.Tx_pool.t option;
  }

  let owner t = Signer.id t.signer
  let contains t id = Dedup_set.mem t.known id
  let counter t = t.counter
  let seq t = t.seq

  let sign_snapshot t =
    Sketch.encode_into t.sketch t.sketch_buf ~pos:0;
    let ctx = Lo_crypto.Sha256.init () in
    Lo_crypto.Sha256.feed_bytes ctx t.sketch_buf 0 (Bytes.length t.sketch_buf);
    let unsigned =
      {
        owner = owner t;
        seq = t.seq;
        counter = t.counter;
        clock = Bloom_clock.copy t.clock;
        sketch_hash = Lo_crypto.Sha256.finalize ctx;
        sketch = Some (Sketch.copy t.sketch);
        signature = String.make Signer.signature_size '\000';
      }
    in
    let signature = Signer.sign t.signer (signing_bytes unsigned) in
    { unsigned with signature }

  let record_digest t d =
    t.current <- d;
    Hashtbl.replace t.digest_index d.seq d;
    (* One strip per append keeps the full-sketch window complete. *)
    if t.digest_history < max_int then begin
      let old_seq = d.seq - t.digest_history in
      if old_seq >= 0 then
        match Hashtbl.find_opt t.digest_index old_seq with
        | Some od when is_full od ->
            Hashtbl.replace t.digest_index old_seq (strip_sketch od)
        | _ -> ()
    end

  let create ?(sketch_capacity = default_sketch_capacity)
      ?(clock_cells = default_clock_cells) ?(digest_history = max_int) ?tx_pool
      ~signer () =
    if digest_history < 1 then
      invalid_arg "Commitment.Log.create: digest_history must be >= 1";
    let sketch = Sketch.create ~capacity:sketch_capacity () in
    let t =
      {
        signer;
        sketch_capacity;
        clock_cells;
        digest_history;
        bundles_rev = [];
        current =
          (* placeholder, replaced by the seq-0 snapshot below *)
          {
            owner = Signer.id signer;
            seq = 0;
            counter = 0;
            clock = Bloom_clock.create ~cells:clock_cells ();
            sketch_hash = "";
            sketch = None;
            signature = "";
          };
        counter = 0;
        seq = 0;
        clock = Bloom_clock.create ~cells:clock_cells ();
        sketch;
        known = Dedup_set.create ~initial_capacity:256 ();
        cells = Array.make clock_cells [];
        ids = Array.make 64 0;
        sketch_buf = Bytes.create (Sketch.serialized_size sketch);
        digest_index = Hashtbl.create 256;
        tx_pool;
      }
    in
    (* The signed empty (seq 0) snapshot anchors evidence about the very
       first bundle. *)
    record_digest t (sign_snapshot t);
    t

  let current_digest t = t.current
  let current_digest_light t = strip_sketch (current_digest t)

  let append t ~source ~ids =
    let fresh =
      List.filter
        (fun id ->
          if id <= 0 || id > Short_id.max_value then false
          else Dedup_set.add t.known id)
        ids
    in
    match fresh with
    | [] -> None
    | _ ->
        List.iter
          (fun id ->
            Bloom_clock.add_int t.clock id;
            let cell = Bloom_clock.cell_of_int ~cells:t.clock_cells id in
            t.cells.(cell) <- id :: t.cells.(cell))
          fresh;
        (* Syndrome accumulation is xor-commutative, so the whole
           bundle goes through the paired sketch kernel at once, or
           through the world's cached powers. *)
        (match t.tx_pool with
        | None -> Sketch.add_all t.sketch fresh
        | Some pool -> Interner.Tx_pool.sketch_add_all pool t.sketch fresh);
        let n = List.length fresh in
        if t.counter + n > Array.length t.ids then begin
          let grown = Array.make (max (t.counter + n) (2 * Array.length t.ids)) 0 in
          Array.blit t.ids 0 grown 0 t.counter;
          t.ids <- grown
        end;
        List.iteri (fun i id -> t.ids.(t.counter + i) <- id) fresh;
        t.counter <- t.counter + n;
        t.seq <- t.seq + 1;
        t.bundles_rev <- { seq = t.seq; source; ids = fresh } :: t.bundles_rev;
        let d = sign_snapshot t in
        record_digest t d;
        Some d

  let digest_at t ~seq = Hashtbl.find_opt t.digest_index seq

  let ids_in_cells t cells =
    List.concat_map
      (fun cell ->
        if cell >= 0 && cell < Array.length t.cells then
          List.rev t.cells.(cell)
        else [])
      cells

  let bundles t = List.rev t.bundles_rev
  let newest_bundle t = match t.bundles_rev with b :: _ -> Some b | [] -> None

  let oldest t n =
    let acc = ref [] in
    for j = min n t.counter - 1 downto 0 do
      acc := t.ids.(j) :: !acc
    done;
    !acc

  let newest t n =
    let acc = ref [] in
    for j = t.counter - max 0 (min n t.counter) to t.counter - 1 do
      acc := t.ids.(j) :: !acc
    done;
    !acc

  (* [t.cells.(c)] is already newest first; the cells are visited last
     to first. *)
  let newest_in_cells t cells n =
    let rec from_cells cells k acc =
      match cells with
      | cell :: rest when k > 0 ->
          if cell >= 0 && cell < Array.length t.cells then
            from_ids t.cells.(cell) rest k acc
          else from_cells rest k acc
      | _ -> List.rev acc
    and from_ids ids cells k acc =
      match ids with
      | id :: more when k > 0 -> from_ids more cells (k - 1) (id :: acc)
      | _ -> from_cells cells k acc
    in
    from_cells (List.rev cells) n []
end
