module Stats = struct
  type t = {
    (* samples in insertion order, in an unboxed float array — a cons
       cell per sample was the sweep hot loop's dominant allocation *)
    mutable buf : float array;
    mutable count : int;
    mutable mean_v : float;
    mutable m2 : float;  (* sum of squared deviations from the running mean *)
    mutable min_v : float;
    mutable max_v : float;
    mutable sorted : float array option;
  }

  let create () =
    {
      buf = [||];
      count = 0;
      mean_v = 0.;
      m2 = 0.;
      min_v = infinity;
      max_v = neg_infinity;
      sorted = None;
    }

  (* Welford's online update: the naive sum_sq/n - mean^2 form loses all
     precision when stddev << mean (catastrophic cancellation). *)
  let add t v =
    if t.count = Array.length t.buf then begin
      let bigger = Array.make (Stdlib.max 16 (2 * t.count)) 0. in
      Array.blit t.buf 0 bigger 0 t.count;
      t.buf <- bigger
    end;
    t.buf.(t.count) <- v;
    t.count <- t.count + 1;
    let delta = v -. t.mean_v in
    t.mean_v <- t.mean_v +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (v -. t.mean_v));
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v;
    t.sorted <- None

  let count t = t.count
  let mean t = if t.count = 0 then 0. else t.mean_v

  let stddev t =
    if t.count < 2 then 0.
    else sqrt (Float.max 0. (t.m2 /. float_of_int t.count))

  let min t = if t.count = 0 then 0. else t.min_v
  let max t = if t.count = 0 then 0. else t.max_v

  let sorted t =
    match t.sorted with
    | Some a -> a
    | None ->
        let a = Array.sub t.buf 0 t.count in
        Array.sort Float.compare a;
        t.sorted <- Some a;
        a

  let percentile t p =
    let a = sorted t in
    let n = Array.length a in
    if n = 0 then 0.
    else begin
      let rank = int_of_float (Float.round (p *. float_of_int (n - 1))) in
      a.(Stdlib.max 0 (Stdlib.min (n - 1) rank))
    end

  let values t = Array.to_list (Array.sub t.buf 0 t.count)

  (* Replays [src]'s samples through [add] in their insertion order, so
     folding per-rep collectors into one (the parallel experiment join)
     performs bit-for-bit the same float operations as feeding one
     shared collector sequentially — and allocates nothing beyond the
     destination's own growth (no intermediate list). *)
  let absorb t src =
    for i = 0 to src.count - 1 do
      add t src.buf.(i)
    done
end

module Histogram = struct
  (* Fixed bin array, preallocated at creation — [add] and [absorb]
     allocate nothing (the expression below must keep its exact
     operation order: bin edges are float-rounding-sensitive). *)
  type t = { lo : float; hi : float; counts : int array; mutable total : int }

  let create ~lo ~hi ~bins =
    if bins <= 0 || hi <= lo then invalid_arg "Histogram.create";
    { lo; hi; counts = Array.make bins 0; total = 0 }

  let add t v =
    let bins = Array.length t.counts in
    let idx =
      int_of_float (float_of_int bins *. (v -. t.lo) /. (t.hi -. t.lo))
    in
    let idx = Stdlib.max 0 (Stdlib.min (bins - 1) idx) in
    t.counts.(idx) <- t.counts.(idx) + 1;
    t.total <- t.total + 1

  let total t = t.total

  let absorb t src =
    if
      Array.length t.counts <> Array.length src.counts
      || t.lo <> src.lo || t.hi <> src.hi
    then invalid_arg "Histogram.absorb: incompatible histograms";
    Array.iteri (fun i c -> t.counts.(i) <- t.counts.(i) + c) src.counts;
    t.total <- t.total + src.total

  let bin_edges t =
    let bins = Array.length t.counts in
    let w = (t.hi -. t.lo) /. float_of_int bins in
    Array.init bins (fun i ->
        (t.lo +. (float_of_int i *. w), t.lo +. (float_of_int (i + 1) *. w)))

  let counts t = Array.copy t.counts

  let density t =
    if t.total = 0 then Array.make (Array.length t.counts) 0.
    else
      Array.map (fun c -> float_of_int c /. float_of_int t.total) t.counts
end
