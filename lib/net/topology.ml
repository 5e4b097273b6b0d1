type t = { adjacency : int list array; edge_set : (int * int, unit) Hashtbl.t }

let n t = Array.length t.adjacency
let neighbors t i = t.adjacency.(i)
let degree t i = List.length t.adjacency.(i)

let edge_key a b = if a < b then (a, b) else (b, a)

let add_edge adjacency edge_set a b =
  if a <> b && not (Hashtbl.mem edge_set (edge_key a b)) then begin
    Hashtbl.add edge_set (edge_key a b) ();
    adjacency.(a) <- b :: adjacency.(a);
    adjacency.(b) <- a :: adjacency.(b);
    true
  end
  else false

(* Fill outbound slots of [sources] with random targets drawn from the
   whole node set, respecting the inbound cap. [indeg] counts inbound
   acceptances only; ring edges count on both sides. *)
let fill_random rng adjacency edge_set indeg ~sources ~targets ~out_degree
    ~max_in ~outdeg =
  let num = Array.length targets in
  List.iter
    (fun v ->
      let attempts = ref 0 in
      while outdeg.(v) < out_degree && !attempts < 50 * out_degree do
        incr attempts;
        let w = targets.(Rng.int rng num) in
        if w <> v && indeg.(w) < max_in && not (Hashtbl.mem edge_set (edge_key v w))
        then begin
          ignore (add_edge adjacency edge_set v w);
          outdeg.(v) <- outdeg.(v) + 1;
          indeg.(w) <- indeg.(w) + 1
        end
      done)
    sources

let build_over rng ~total ~ring_nodes ~other_nodes ~out_degree ~max_in =
  let adjacency = Array.make total [] in
  let edge_set = Hashtbl.create (total * out_degree) in
  let outdeg = Array.make total 0 and indeg = Array.make total 0 in
  (* Ring over [ring_nodes] in a shuffled order. *)
  let ring = Array.of_list ring_nodes in
  Rng.shuffle rng ring;
  let rn = Array.length ring in
  if rn >= 2 then
    for i = 0 to rn - 1 do
      let a = ring.(i) and b = ring.((i + 1) mod rn) in
      if add_edge adjacency edge_set a b then begin
        outdeg.(a) <- outdeg.(a) + 1;
        indeg.(b) <- indeg.(b) + 1
      end
    done;
  let everyone = Array.init total Fun.id in
  fill_random rng adjacency edge_set indeg ~sources:ring_nodes
    ~targets:everyone ~out_degree ~max_in ~outdeg;
  fill_random rng adjacency edge_set indeg ~sources:other_nodes
    ~targets:everyone ~out_degree ~max_in ~outdeg;
  { adjacency; edge_set }

let build rng ~n ~out_degree ~max_in =
  if n <= 0 then invalid_arg "Topology.build";
  build_over rng ~total:n ~ring_nodes:(List.init n Fun.id) ~other_nodes:[]
    ~out_degree ~max_in

let build_with_correct_core rng ~malicious ~out_degree ~max_in =
  let total = Array.length malicious in
  let correct = ref [] and bad = ref [] in
  for i = total - 1 downto 0 do
    if malicious.(i) then bad := i :: !bad else correct := i :: !correct
  done;
  build_over rng ~total ~ring_nodes:!correct ~other_nodes:!bad ~out_degree
    ~max_in

let is_connected_subgraph t ~keep =
  let total = n t in
  let start = ref (-1) in
  let members = ref 0 in
  for i = 0 to total - 1 do
    if keep i then begin
      incr members;
      if !start < 0 then start := i
    end
  done;
  if !members <= 1 then true
  else begin
    let visited = Array.make total false in
    let queue = Queue.create () in
    Queue.add !start queue;
    visited.(!start) <- true;
    let seen = ref 1 in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      List.iter
        (fun w ->
          if keep w && not visited.(w) then begin
            visited.(w) <- true;
            incr seen;
            Queue.add w queue
          end)
        t.adjacency.(v)
    done;
    !seen = !members
  end

let average_degree t =
  let total = n t in
  let sum = ref 0 in
  for i = 0 to total - 1 do
    sum := !sum + degree t i
  done;
  float_of_int !sum /. float_of_int total
