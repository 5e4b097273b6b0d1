type t = {
  net : Network.t;
  table : (int * string, Network.handler) Hashtbl.t;
  installed : (int, unit) Hashtbl.t;
  mutable unknown : int;
  unknown_by_tag : (string, int ref) Hashtbl.t;
}

let create net =
  {
    net;
    table = Hashtbl.create 64;
    installed = Hashtbl.create 64;
    unknown = 0;
    unknown_by_tag = Hashtbl.create 8;
  }

let proto_of_tag tag =
  match String.index_opt tag ':' with
  | None -> tag
  | Some i -> String.sub tag 0 i

(* An unsubscribed proto is not an error the receiver can act on (the
   sender may simply speak a newer protocol revision), but it must not
   vanish: count it and surface it on the trace so an audit of a live
   cluster sees the version skew. *)
let note_unknown t node ~from ~tag =
  t.unknown <- t.unknown + 1;
  (match Hashtbl.find_opt t.unknown_by_tag tag with
  | Some r -> incr r
  | None -> Hashtbl.add t.unknown_by_tag tag (ref 1));
  Network.emit t.net (Lo_obs.Event.Unknown_tag { node; src = from; tag })

let dispatch t node net ~from ~tag payload =
  match Hashtbl.find_opt t.table (node, proto_of_tag tag) with
  | Some handler -> handler net ~from ~tag payload
  | None -> note_unknown t node ~from ~tag

let register t node ~proto handler =
  Hashtbl.replace t.table (node, proto) handler;
  if not (Hashtbl.mem t.installed node) then begin
    Hashtbl.add t.installed node ();
    Network.set_handler t.net node (fun net ~from ~tag payload ->
        dispatch t node net ~from ~tag payload)
  end

let unknown_count t = t.unknown

let unknown_tags t =
  Hashtbl.fold (fun tag r acc -> (tag, !r) :: acc) t.unknown_by_tag []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
