type stats = {
  sketches_built : int;
  reconciliations : int;
  decode_failures : int;
  bytes_exchanged : int;
  max_depth : int;
}

let empty_stats =
  {
    sketches_built = 0;
    reconciliations = 0;
    decode_failures = 0;
    bytes_exchanged = 0;
    max_depth = 0;
  }

(* Beyond its capacity a sketch can decode to a wrong set with the same
   syndromes, which the re-encode check in [Sketch.decode] cannot tell
   apart. The two sides can: each knows its own ids, so a decoded id
   outside the partition, held by neither side or held by both, shows
   the decode was wrong. [sides] maps each id to 1 (local), 2 (remote)
   or 3 (both). *)
let sides ~local ~remote =
  let t = Hashtbl.create (List.length local + List.length remote) in
  let mark bit e =
    let seen = Option.value ~default:0 (Hashtbl.find_opt t e) in
    Hashtbl.replace t e (bit lor seen)
  in
  List.iter (mark 1) local;
  List.iter (mark 2) remote;
  t

let genuine sides ~depth ~value e =
  e land ((1 lsl depth) - 1) = value
  &&
  match Hashtbl.find_opt sides e with Some (1 | 2) -> true | _ -> false

let reconcile ~capacity ~local ~remote () =
  let stats = ref empty_stats in
  let diff = ref [] in
  let sides = sides ~local ~remote in
  (* Partition (depth, value): ids whose low [depth] bits equal [value]. *)
  let queue = Queue.create () in
  let sketch = Sketch.of_list ~capacity in
  Queue.add (0, 0, local, remote, sketch local, sketch remote) queue;
  while not (Queue.is_empty queue) do
    let depth, value, l, r, sl, sr = Queue.pop queue in
    let merged = Sketch.merge sl sr in
    let bytes = 2 * Sketch.serialized_size sl in
    stats :=
      {
        !stats with
        sketches_built = !stats.sketches_built + 2;
        reconciliations = !stats.reconciliations + 1;
        bytes_exchanged = !stats.bytes_exchanged + bytes;
        max_depth = max !stats.max_depth depth;
      };
    match Sketch.decode merged with
    | Ok elements when List.for_all (genuine sides ~depth ~value) elements ->
        diff := List.rev_append elements !diff
    | Ok _ | Error `Decode_failure ->
        stats := { !stats with decode_failures = !stats.decode_failures + 1 };
        if depth >= 32 then
          (* All 32 id bits are spent; give up on this partition (ids
             are uniform hashes, so in practice this is unreachable). *)
          ()
        else begin
          let bit = 1 lsl depth in
          let part p xs = List.filter (fun e -> e land bit = if p then bit else 0) xs in
          let l0 = part false l and r0 = part false r in
          let sl0 = sketch l0 and sr0 = sketch r0 in
          Queue.add (depth + 1, value, l0, r0, sl0, sr0) queue;
          (* Sketches are linear, so each side gets its second half's
             sketch as its whole sketch xor its first half's, without a
             pass over the second half's ids. *)
          Queue.add
            ( depth + 1,
              value lor bit,
              part true l,
              part true r,
              Sketch.merge sl sl0,
              Sketch.merge sr sr0 )
            queue
        end
  done;
  (!stats, !diff)

let reconcile_monolithic ~capacity ~local ~remote () =
  let sl = Sketch.of_list ~capacity local in
  let sr = Sketch.of_list ~capacity remote in
  let stats =
    {
      empty_stats with
      sketches_built = 2;
      reconciliations = 1;
      bytes_exchanged = 2 * Sketch.serialized_size sl;
    }
  in
  match Sketch.decode (Sketch.merge sl sr) with
  | Ok elements -> (stats, Some elements)
  | Error `Decode_failure -> ({ stats with decode_failures = 1 }, None)
