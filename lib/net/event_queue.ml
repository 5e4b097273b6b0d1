type 'a entry = { time : float; seq : int; payload : 'a }

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Brown's calendar queue: buckets of width [width] seconds, years of
   [n] buckets. Each bucket is a list sorted ascending by (time, seq),
   so its head is the bucket minimum. An entry's virtual bucket is
   [vb time] — a monotone function of time — and equal times always
   share a virtual bucket, which is what makes the scan below return
   the global (time, seq) minimum: scanning virtual buckets in
   increasing order, the first head that belongs to the current
   virtual bucket precedes every entry of every later virtual bucket
   (monotonicity), and precedes the rest of its own bucket (sorted).
   FIFO ties are thus decided only by the in-bucket sort, i.e. by
   [seq]. *)
type 'a t = {
  mutable buckets : 'a entry list array;
  mutable size : int;
  mutable width : float;
  mutable vi : int;  (* current virtual bucket; no live entry is below it *)
  mutable next_seq : int;
}

let min_buckets = 16
let min_width = 1e-9

let create () =
  {
    buckets = Array.make min_buckets [];
    size = 0;
    width = 1.0;
    vi = 0;
    next_seq = 0;
  }

let size t = t.size

let vb t time =
  let q = time /. t.width in
  if q <= 0. then 0 else int_of_float q

let rec insert_sorted e = function
  | [] -> [ e ]
  | x :: _ as l when before e x -> e :: l
  | x :: rest -> x :: insert_sorted e rest

let add_entry t e =
  let v = vb t e.time in
  let b = v mod Array.length t.buckets in
  t.buckets.(b) <- insert_sorted e t.buckets.(b);
  t.size <- t.size + 1;
  if t.size = 1 || v < t.vi then t.vi <- v

(* Rebuild with [n] buckets. Width follows Brown: three times the mean
   gap between the earliest (up to 25) entries, leaving out gaps over
   twice the mean, so the dense near-term traffic spreads over many
   buckets however far ahead the last timer sits (performance only —
   never order). *)
let rebuild t n =
  let old = t.buckets in
  let times = Array.make t.size 0. and k = ref 0 in
  Array.iter
    (List.iter (fun e ->
         times.(!k) <- e.time;
         incr k))
    old;
  Array.sort Float.compare times;
  let gaps =
    List.init (max 0 (min t.size 25 - 1)) (fun i -> times.(i + 1) -. times.(i))
  in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let width =
    match gaps with
    | [] -> t.width
    | _ ->
        let avg = mean gaps in
        let w = 3. *. mean (List.filter (fun g -> g <= 2. *. avg) gaps) in
        if w > 0. then Float.max min_width w else t.width
  in
  t.buckets <- Array.make (max min_buckets n) [];
  t.width <- width;
  t.size <- 0;
  t.vi <- 0;
  Array.iter (List.iter (add_entry t)) old

let add t ~time payload =
  add_entry t { time; seq = t.next_seq; payload };
  t.next_seq <- t.next_seq + 1;
  if t.size > 2 * Array.length t.buckets then
    rebuild t (2 * Array.length t.buckets)

(* Locate the bucket holding the global minimum and point [t.vi] at
   its virtual bucket. After a fruitless year-long scan (a sparse
   queue spread over a huge span), fall back to a direct minimum over
   the bucket heads and re-anchor. *)
let find_min_bucket t =
  if t.size = 0 then None
  else begin
    let n = Array.length t.buckets in
    let direct () =
      let best = ref None in
      Array.iteri
        (fun b l ->
          match l with
          | [] -> ()
          | e :: _ -> (
              match !best with
              | Some (_, be) when before be e -> ()
              | _ -> best := Some (b, e)))
        t.buckets;
      match !best with
      | None -> None
      | Some (b, e) ->
          t.vi <- vb t e.time;
          Some b
    in
    let rec scan i vi =
      if i = n then direct ()
      else
        let b = vi mod n in
        match t.buckets.(b) with
        | e :: _ when vb t e.time = vi ->
            t.vi <- vi;
            Some b
        | _ -> scan (i + 1) (vi + 1)
    in
    scan 0 t.vi
  end

let peek_time t =
  match find_min_bucket t with
  | None -> None
  | Some b -> ( match t.buckets.(b) with e :: _ -> Some e.time | [] -> None)

let pop t =
  match find_min_bucket t with
  | None -> None
  | Some b -> (
      match t.buckets.(b) with
      | [] -> None
      | e :: rest ->
          t.buckets.(b) <- rest;
          t.size <- t.size - 1;
          let n = Array.length t.buckets in
          if t.size < n / 4 && n > min_buckets then rebuild t (n / 2);
          Some (e.time, e.payload))
