type node = int

type event =
  | Deliver of { src : node; dst : node; tag : string; payload : string }
  | Timer of (t -> unit)

and t = {
  num_nodes : int;
  latency : Latency.t;
  jitter : float;
  mutable loss_rate : float;
  rng : Rng.t;
  queue : event Event_queue.t;
  mutable clock : float;
  handlers : handler option array;
  down : bool array;
  restart_handlers : (t -> unit) option array;
  mutable filter : (src:node -> dst:node -> tag:string -> bool) option;
  mutable partition : int array option;
  node_delay : float array;
  link_faults : (node * node, link_fault) Hashtbl.t;
  mutable obs : Lo_obs.Trace.t option;
}

and handler = t -> from:node -> tag:string -> string -> unit

and link_fault = { link_loss : float; link_delay : float }

(* Perturbed delivery must stay strictly positive for src <> dst: a
   zero (or negative) delay would deliver a message in the same event
   slot it was sent from, breaking causality assumptions downstream. *)
let min_delay = 1e-6

let create ?(latency = Latency.default) ?(jitter = 0.1) ?(loss_rate = 0.)
    ~num_nodes ~seed () =
  if num_nodes <= 0 then invalid_arg "Network.create";
  if loss_rate < 0. || loss_rate >= 1. then invalid_arg "Network.create: loss_rate";
  {
    num_nodes;
    latency;
    jitter;
    loss_rate;
    rng = Rng.create seed;
    queue = Event_queue.create ();
    clock = 0.;
    handlers = Array.make num_nodes None;
    down = Array.make num_nodes false;
    restart_handlers = Array.make num_nodes None;
    filter = None;
    partition = None;
    node_delay = Array.make num_nodes 0.;
    link_faults = Hashtbl.create 16;
    obs = None;
  }

let set_trace t trace = t.obs <- trace
let trace t = t.obs

let num_nodes t = t.num_nodes
let now t = t.clock
let rng t = t.rng
let city_of t node = Latency.city_of_node t.latency node

let check_node t n what =
  if n < 0 || n >= t.num_nodes then invalid_arg ("Network: bad node in " ^ what)

let set_handler t node handler =
  check_node t node "set_handler";
  t.handlers.(node) <- Some handler

let partitioned t ~src ~dst =
  src <> dst
  && match t.partition with
     | None -> false
     | Some groups -> groups.(src) <> groups.(dst)

let send t ~src ~dst ~tag payload =
  check_node t src "send src";
  check_node t dst "send dst";
  let allowed =
    match t.filter with None -> true | Some f -> f ~src ~dst ~tag
  in
  if
    not
      (allowed && (not t.down.(dst)) && (not t.down.(src))
      && not (partitioned t ~src ~dst))
  then begin
    (* Refused before any charge: traced as a blocked drop with no
       matching send, so it stays outside bandwidth conservation. *)
    match t.obs with
    | Some tr ->
        Lo_obs.Trace.emit tr ~at:t.clock
          (Lo_obs.Event.Drop
             {
               src;
               dst;
               tag;
               bytes = String.length payload;
               reason = Lo_obs.Event.Blocked;
             })
    | None -> ()
  end
  else begin
    let size = String.length payload in
    (match t.obs with
    | Some tr ->
        Lo_obs.Trace.emit tr ~at:t.clock
          (Lo_obs.Event.Send { src; dst; tag; bytes = size })
    | None -> ());
    let fault = Hashtbl.find_opt t.link_faults (src, dst) in
    let base =
      if src = dst then 0.
      else Latency.one_way t.latency (city_of t src) (city_of t dst)
    in
    let jit =
      if t.jitter <= 0. || base <= 0. then 0.
      else base *. t.jitter *. (Rng.float t.rng 2.0 -. 1.0)
    in
    let extra =
      t.node_delay.(src)
      +. (match fault with Some f -> f.link_delay | None -> 0.)
    in
    let delay =
      if src = dst then Float.max 0. (base +. jit +. extra)
      else Float.max min_delay (base +. jit) +. extra
    in
    let link_loss = match fault with Some f -> f.link_loss | None -> 0. in
    (* Independent drops: the global rate and the per-link overlay. *)
    let loss_p = t.loss_rate +. link_loss -. (t.loss_rate *. link_loss) in
    let lost = loss_p > 0. && src <> dst && Rng.float t.rng 1.0 < loss_p in
    if not lost then
      Event_queue.add t.queue ~time:(t.clock +. delay)
        (Deliver { src; dst; tag; payload })
    else begin
      match t.obs with
      | Some tr ->
          Lo_obs.Trace.emit tr ~at:t.clock
            (Lo_obs.Event.Drop
               { src; dst; tag; bytes = size; reason = Lo_obs.Event.Loss })
      | None -> ()
    end
  end

let send_many t ~src ~dsts ~tag payload =
  List.iter (fun dst -> send t ~src ~dst ~tag payload) dsts

let schedule_at t ~at f =
  if at < t.clock then invalid_arg "Network.schedule_at: past";
  Event_queue.add t.queue ~time:at (Timer f)

let schedule t ~delay f = schedule_at t ~at:(t.clock +. delay) f

(* Down-state transitions are traced (crash on up->down, restart on
   down->up) regardless of which entry point flipped them. *)
let mark_down t node v =
  let was = t.down.(node) in
  t.down.(node) <- v;
  match t.obs with
  | Some tr when was <> v ->
      Lo_obs.Trace.emit tr ~at:t.clock
        (if v then Lo_obs.Event.Crash { node }
         else Lo_obs.Event.Restart { node })
  | _ -> ()

let set_down t node v =
  check_node t node "set_down";
  mark_down t node v

let is_down t node =
  check_node t node "is_down";
  t.down.(node)

let crash t node =
  check_node t node "crash";
  mark_down t node true

let set_restart_handler t node f =
  check_node t node "set_restart_handler";
  t.restart_handlers.(node) <- Some f

let restart t node =
  check_node t node "restart";
  if t.down.(node) then begin
    mark_down t node false;
    match t.restart_handlers.(node) with Some f -> f t | None -> ()
  end

let set_delivery_filter t f = t.filter <- f

let set_partition t groups =
  (match groups with
  | Some g when Array.length g <> t.num_nodes ->
      invalid_arg "Network.set_partition: group array size"
  | _ -> ());
  t.partition <- groups

let loss_rate t = t.loss_rate

let set_loss_rate t r =
  if r < 0. || r >= 1. then invalid_arg "Network.set_loss_rate";
  t.loss_rate <- r

let node_delay t node =
  check_node t node "node_delay";
  t.node_delay.(node)

let set_node_delay t node d =
  check_node t node "set_node_delay";
  if d < 0. then invalid_arg "Network.set_node_delay";
  t.node_delay.(node) <- d

let set_link_fault t ~src ~dst ?(loss = 0.) ?(extra_delay = 0.) () =
  check_node t src "set_link_fault src";
  check_node t dst "set_link_fault dst";
  if loss < 0. || loss > 1. || extra_delay < 0. then
    invalid_arg "Network.set_link_fault";
  Hashtbl.replace t.link_faults (src, dst)
    { link_loss = loss; link_delay = extra_delay }

let clear_link_fault t ~src ~dst =
  Hashtbl.remove t.link_faults (src, dst)

let dispatch t event =
  match event with
  | Timer f -> f t
  | Deliver { src; dst; tag; payload } ->
      if not t.down.(dst) then begin
        (match t.obs with
        | Some tr ->
            Lo_obs.Trace.emit tr ~at:t.clock
              (Lo_obs.Event.Deliver
                 { src; dst; tag; bytes = String.length payload })
        | None -> ());
        match t.handlers.(dst) with
        | None -> ()
        | Some handler -> handler t ~from:src ~tag payload
      end
      else begin
        match t.obs with
        | Some tr ->
            Lo_obs.Trace.emit tr ~at:t.clock
              (Lo_obs.Event.Drop
                 {
                   src;
                   dst;
                   tag;
                   bytes = String.length payload;
                   reason = Lo_obs.Event.Down;
                 })
        | None -> ()
      end

let run_until t until =
  let continue = ref true in
  while !continue do
    match Event_queue.peek_time t.queue with
    | Some time when time <= until -> begin
        match Event_queue.pop t.queue with
        | Some (time, event) ->
            t.clock <- Float.max t.clock time;
            dispatch t event
        | None -> continue := false
      end
    | Some _ | None -> continue := false
  done;
  t.clock <- Float.max t.clock until

let flush_in_flight t =
  match t.obs with
  | None -> ()
  | Some tr ->
      let rec drain () =
        match Event_queue.pop t.queue with
        | None -> ()
        | Some (time, Deliver { src; dst; tag; payload }) ->
            Lo_obs.Trace.emit tr ~at:time
              (Lo_obs.Event.Drop
                 {
                   src;
                   dst;
                   tag;
                   bytes = String.length payload;
                   reason = Lo_obs.Event.In_flight;
                 });
            drain ()
        | Some (_, Timer _) -> drain ()
      in
      drain ()
