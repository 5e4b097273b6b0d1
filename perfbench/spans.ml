(* Self-time spans around calls into a layer, recorded from the
   benchmark's own code. A span's self time is its duration minus the
   time covered by spans opened inside it, so nested layers are never
   counted twice and the self times of one run add up to the time the
   spans cover. *)

type layer = { name : string; mutable self_s : float; mutable calls : int }

type t = {
  layers : (string, layer) Hashtbl.t;
  mutable order : layer list;  (* newest first *)
  mutable depth : int;
  mutable nested : float array;  (* per open span: time of its children *)
}

let create () =
  { layers = Hashtbl.create 16; order = []; depth = 0; nested = Array.make 16 0. }

let layer t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> l
  | None ->
      let l = { name; self_s = 0.; calls = 0 } in
      Hashtbl.add t.layers name l;
      t.order <- l :: t.order;
      l

let span t l f =
  let d = t.depth in
  if d = Array.length t.nested then begin
    let bigger = Array.make (2 * d) 0. in
    Array.blit t.nested 0 bigger 0 d;
    t.nested <- bigger
  end;
  t.nested.(d) <- 0.;
  t.depth <- d + 1;
  let t0 = Stats.wall () in
  let close () =
    let dt = Stats.wall () -. t0 in
    t.depth <- d;
    l.self_s <- l.self_s +. dt -. t.nested.(d);
    l.calls <- l.calls + 1;
    if d > 0 then t.nested.(d - 1) <- t.nested.(d - 1) +. dt
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let reset t =
  List.iter
    (fun l ->
      l.self_s <- 0.;
      l.calls <- 0)
    t.order

let self_s t name =
  match Hashtbl.find_opt t.layers name with Some l -> l.self_s | None -> 0.

let calls t name =
  match Hashtbl.find_opt t.layers name with Some l -> l.calls | None -> 0

let total_self_s t = List.fold_left (fun acc l -> acc +. l.self_s) 0. t.order
