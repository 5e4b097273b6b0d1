type t = {
  index : (string, int) Hashtbl.t;
  mutable table : string array;
  mutable count : int;
}

let create ?(initial = 64) () =
  {
    index = Hashtbl.create initial;
    table = Array.make (max 1 initial) "";
    count = 0;
  }

let size t = t.count

let find t s = Hashtbl.find_opt t.index s

let intern t s =
  match Hashtbl.find_opt t.index s with
  | Some id -> id
  | None ->
      let id = t.count in
      if id = Array.length t.table then begin
        let bigger = Array.make (2 * Array.length t.table) "" in
        Array.blit t.table 0 bigger 0 id;
        t.table <- bigger
      end;
      t.table.(id) <- s;
      t.count <- id + 1;
      Hashtbl.add t.index s id;
      id

let to_string t id =
  if id < 0 || id >= t.count then invalid_arg "Interner.to_string";
  t.table.(id)

module Tx_pool = struct
  module Reader = Lo_codec.Reader
  module Sketch = Lo_sketch.Sketch

  (* Length of a cached power vector: the deployment sketch capacity,
     [Commitment.default_sketch_capacity]. A sketch of larger capacity
     skips the cache. *)
  let power_capacity = 250

  (* FIFO bound on cached power vectors. 1,024 vectors of 250 words is
     about 2 MB a world, and holds every id one 200-node Fig. 6 scenario
     commits (about 1,000), so each id's powers are computed once while
     the id is still spreading. *)
  let power_slots = 1024

  type nonrec t = {
    by_wire : (string, Tx.t) Hashtbl.t;
    slot_of : (int, int) Hashtbl.t; (* short id -> its power slot *)
    slot_id : int array; (* id in each slot, 0 when free *)
    vectors : int array array; (* each allocated on its slot's first use *)
    mutable next_slot : int;
    mutable decode_hits : int;
    mutable decode_misses : int;
    mutable power_hits : int;
    mutable power_misses : int;
  }

  type stats = {
    decode_hits : int;
    decode_misses : int;
    power_hits : int;
    power_misses : int;
  }

  let create ?(initial = 1024) () =
    {
      by_wire = Hashtbl.create initial;
      slot_of = Hashtbl.create power_slots;
      slot_id = Array.make power_slots 0;
      vectors = Array.make power_slots [||];
      next_slot = 0;
      decode_hits = 0;
      decode_misses = 0;
      power_hits = 0;
      power_misses = 0;
    }

  let stats (t : t) : stats =
    {
      decode_hits = t.decode_hits;
      decode_misses = t.decode_misses;
      power_hits = t.power_hits;
      power_misses = t.power_misses;
    }

  (* The framing is parsed first, so only a whole, well-formed
     transaction is looked up; the exact bytes are the key, so a hit is
     field-for-field what [Tx.decode] would return. *)
  let decode (t : t) r =
    let from = Reader.pos r in
    Tx.skip r;
    let wire = Reader.slice r ~from ~until:(Reader.pos r) in
    match Hashtbl.find t.by_wire wire with
    | tx ->
        t.decode_hits <- t.decode_hits + 1;
        tx
    | exception Not_found ->
        t.decode_misses <- t.decode_misses + 1;
        let tx = Tx.decode (Reader.of_string wire) in
        Hashtbl.add t.by_wire wire tx;
        tx

  let powers (t : t) e =
    match Hashtbl.find t.slot_of e with
    | slot ->
        t.power_hits <- t.power_hits + 1;
        t.vectors.(slot)
    | exception Not_found ->
        let slot = t.next_slot in
        if Array.length t.vectors.(slot) = 0 then
          t.vectors.(slot) <- Array.make power_capacity 0;
        let v = t.vectors.(slot) in
        (* Raises on an invalid id before the slot is touched. *)
        Sketch.fill_powers e v;
        t.power_misses <- t.power_misses + 1;
        if t.slot_id.(slot) <> 0 then Hashtbl.remove t.slot_of t.slot_id.(slot);
        t.slot_id.(slot) <- e;
        Hashtbl.add t.slot_of e slot;
        t.next_slot <- (slot + 1) mod power_slots;
        v

  let sketch_add_all t sketch ids =
    if Sketch.capacity sketch > power_capacity then Sketch.add_all sketch ids
    else List.iter (fun e -> Sketch.add_powers sketch (powers t e)) ids
end
