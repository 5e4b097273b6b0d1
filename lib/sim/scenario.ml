module Network = Lo_net.Network
module Rng = Lo_net.Rng
module Topology = Lo_net.Topology
module Signer = Lo_crypto.Signer
open Lo_core

type lo_deployment = {
  net : Network.t;
  mux : Lo_net.Mux.t;
  nodes : Node.t array;
  directory : Directory.t;
  scheme : Signer.scheme;
  topology : Topology.t;
  client : Signer.t;
}

let build_lo ?(config = Fun.id) ?(behaviors = fun _ -> Node.Honest) ?malicious
    ?(loss_rate = 0.) ?trace ~n ~seed () =
  let scheme = Signer.simulation () in
  let net = Network.create ~loss_rate ~num_nodes:n ~seed () in
  (* Before Mux/node creation: node environments snapshot the sink. *)
  Network.set_trace net trace;
  let mux = Lo_net.Mux.create net in
  let { Deployment.signers; directory; topology; client } =
    Deployment.derive ?malicious ~scheme ~n ~seed ()
  in
  let node_config = config (Node.default_config scheme) in
  (* One pool for the whole world: each wire transaction is decoded
     once and every node's mempool shares that instance, and each id's
     syndrome powers are computed once for every node's log. *)
  let tx_pool = Interner.Tx_pool.create () in
  let nodes =
    Array.init n (fun i ->
        let transport = Lo_net.Sim_transport.make ~net ~mux ~node:i in
        Node.create ~tx_pool node_config ~transport
          ~rng:(Rng.split (Network.rng net))
          ~directory ~signer:signers.(i)
          ~neighbors:(Topology.neighbors topology i)
          ~behavior:(behaviors i))
  in
  Array.iter Node.start nodes;
  { net; mux; nodes; directory; scheme; topology; client }

let inject_workload d specs =
  List.map
    (fun spec ->
      let tx =
        Tx.create ~signer:d.client ~fee:spec.Lo_workload.Tx_gen.fee
          ~created_at:spec.created_at
          ~payload:(Lo_workload.Tx_gen.payload spec)
      in
      let origin = spec.origin mod Array.length d.nodes in
      Network.schedule_at d.net ~at:spec.created_at (fun _ ->
          Node.submit_tx d.nodes.(origin) tx);
      tx)
    specs

let schedule_blocks d ~policy ~interval ~until ?(only_honest = true) () =
  let rng = Rng.split (Network.rng d.net) in
  let honest =
    Array.to_list d.nodes
    |> List.filter_map (fun node ->
           match Node.behavior node with
           | Node.Honest -> Some (Node.index node)
           | _ -> if only_honest then None else Some (Node.index node))
  in
  let rec schedule at =
    if at <= until && honest <> [] then begin
      Network.schedule_at d.net ~at (fun _ ->
          let leader = Rng.pick_list rng honest in
          ignore (Node.build_block d.nodes.(leader) ~policy));
      schedule (at +. interval)
    end
  in
  schedule interval

let rotate_neighbors d ~period ~until =
  let rng = Rng.split (Network.rng d.net) in
  let n = Array.length d.nodes in
  let rec rotate at =
    if at <= until then begin
      Network.schedule_at d.net ~at (fun _ ->
          Array.iter
            (fun node ->
              let i = Node.index node in
              let exposed j =
                Accountability.is_exposed (Node.accountability node)
                  (Directory.id_of d.directory j)
              in
              let fresh =
                Lo_net.Peer_sampler.uniform_sample rng ~n ~k:8
                  ~exclude:(fun j -> j = i || exposed j)
              in
              if fresh <> [] then Node.set_neighbors node fresh)
            d.nodes);
      rotate (at +. period)
    end
  in
  rotate period

let standard_workload = Deployment.workload

(* --- fault injection (chaos experiments, scripted churn) --- *)

let apply_fault_plan d plan = Lo_net.Fault_plan.install d.net plan
