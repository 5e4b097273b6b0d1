(* Enforcement: from detection to consequences (paper Sec. 5.4).

   A client submits through the Stage-I path with signed
   acknowledgements; a reordering miner builds a manipulated block; the
   network exposes it; a proof-of-stake ledger slashes its deposit and
   the overlay refuses its future blocks.

   Run with: dune exec examples/enforcement_demo.exe *)

open Lo_core
module Net = Lo_net.Network
module Signer = Lo_crypto.Signer

let () =
  let scheme = Signer.simulation () in
  let miners = 12 in
  let net = Net.create ~num_nodes:(miners + 1) ~seed:99 () in
  (* Exposures are read off the trace; one retained entry is enough for
     an observer. Attach it before the nodes are created. *)
  let trace = Lo_obs.Trace.create ~capacity:1 () in
  Net.set_trace net (Some trace);
  let mux = Lo_net.Mux.create net in
  let signers =
    Array.init miners (fun i -> Signer.make scheme ~seed:(Printf.sprintf "v%d" i))
  in
  let directory = Directory.create ~ids:(Array.map Signer.id signers) in
  let rng = Lo_net.Rng.create 5 in
  let topo = Lo_net.Topology.build rng ~n:miners ~out_degree:6 ~max_in:125 in
  let config =
    { (Node.default_config scheme) with Node.reject_exposed_blocks = true }
  in
  let nodes =
    Array.init miners (fun i ->
        Node.create config
          ~transport:(Lo_net.Sim_transport.make ~net ~mux ~node:i)
          ~rng:(Lo_net.Rng.split (Lo_net.Network.rng net))
          ~directory ~signer:signers.(i)
          ~neighbors:(Lo_net.Topology.neighbors topo i)
          ~behavior:(if i = 0 then Node.Block_reorderer else Node.Honest))
  in
  Array.iter Node.start nodes;

  (* A proof-of-stake ledger; every validator bonded 1,000 units. *)
  let ledger = Enforcement.create () in
  Array.iter
    (fun s -> Enforcement.register ledger ~id:(Signer.id s) ~stake:1000)
    signers;
  (* Observer: node 1's verified exposures drive the slashing. *)
  Lo_obs.Trace.observe trace
    (function
    | { Lo_obs.Trace.at = now; ev = Lo_obs.Event.Expose { node = 1; peer } }
      -> (
        let accused = Signer.id signers.(peer) in
        match Accountability.status (Node.accountability nodes.(1)) accused with
        | Accountability.Exposed evidence ->
            Printf.printf "[%.2fs] exposure verified (%s); slashing...\n" now
              (Evidence.describe evidence);
            Enforcement.punish ledger ~id:accused evidence ~now
        | _ -> ())
    | _ -> ());

  (* Stage I: a client with acknowledgements. *)
  let client_signer = Signer.make scheme ~seed:"enforcement-client" in
  let client =
    Client.create
      (Client.default_config scheme)
      ~net ~index:miners ~signer:client_signer
      ~miners:(List.init miners (fun i -> (i, Signer.id signers.(i))))
  in
  Client.start client;
  Client.on_acknowledged client (fun tx ~now ->
      Printf.printf "[%.2fs] client holds signed receipt for %s\n" now
        (Lo_crypto.Hex.encode (String.sub tx.Tx.id 0 4)));
  let submitted =
    List.init 8 (fun k ->
        Client.submit client ~fee:(10 + k) ~payload:(Printf.sprintf "payment-%d" k))
  in
  Net.run_until net 12.0;
  Printf.printf "receipts per tx: %s\n"
    (String.concat ", "
       (List.map
          (fun tx -> string_of_int (Client.ack_count client ~txid:tx.Tx.id))
          submitted));

  (* The reordering miner wins block creation. *)
  (match Node.build_block nodes.(0) ~policy:Policy.Lo_fifo with
  | Some block ->
      Printf.printf "manipulated block %d announced (%d txs)\n"
        block.Block.height (List.length block.Block.txids)
  | None -> print_endline "no block?!");
  Net.run_until net 30.0;

  let bad = Signer.id signers.(0) in
  Printf.printf "attacker stake after slashing: %d (of 1000), burned total: %d\n"
    (Enforcement.stake ledger ~id:bad)
    (Enforcement.slashed_total ledger);
  Printf.printf "attacker eligible for leader election: %b\n"
    (Enforcement.is_eligible ledger ~id:bad);

  (* Its next block is refused chain-wide. *)
  let tx2 = Client.submit client ~fee:99 ~payload:"after-exposure" in
  ignore tx2;
  Net.run_until net 45.0;
  ignore (Node.build_block nodes.(0) ~policy:Policy.Lo_fifo);
  Net.run_until net 60.0;
  let heights =
    Array.to_list nodes |> List.tl
    |> List.map (fun node -> Node.chain_height node)
    |> List.sort_uniq compare
  in
  Printf.printf "honest chain heights after refused block: %s\n"
    (String.concat "," (List.map string_of_int heights));
  print_endline "detection -> exposure -> slashing -> rejection: demo done."
