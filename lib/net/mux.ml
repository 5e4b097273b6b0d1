type t = {
  net : Network.t;
  table : (int * string, Network.handler) Hashtbl.t;
  installed : (int, unit) Hashtbl.t;
}

let create net =
  { net; table = Hashtbl.create 64; installed = Hashtbl.create 64 }

let proto_of_tag tag =
  match String.index_opt tag ':' with
  | None -> tag
  | Some i -> String.sub tag 0 i

(* An unsubscribed proto is not an error the receiver can act on (the
   sender may simply speak a newer protocol revision), but it must not
   vanish: it surfaces on the trace, where an audit of a live cluster
   sees the version skew and [Trace.count] counts it. *)
let dispatch t node net ~from ~tag payload =
  match Hashtbl.find_opt t.table (node, proto_of_tag tag) with
  | Some handler -> handler net ~from ~tag payload
  | None ->
      Network.emit t.net (Lo_obs.Event.Unknown_tag { node; src = from; tag })

let register t node ~proto handler =
  Hashtbl.replace t.table (node, proto) handler;
  if not (Hashtbl.mem t.installed node) then begin
    Hashtbl.add t.installed node ();
    Network.set_handler t.net node (fun net ~from ~tag payload ->
        dispatch t node net ~from ~tag payload)
  end
