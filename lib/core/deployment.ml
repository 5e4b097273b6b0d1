module Rng = Lo_net.Rng
module Topology = Lo_net.Topology
module Signer = Lo_crypto.Signer

type t = {
  signers : Signer.t array;
  directory : Directory.t;
  topology : Topology.t;
  client : Signer.t;
}

let topology ?malicious ~n ~seed () =
  let rng = Rng.create ((seed * 31) + 7) in
  match malicious with
  | None -> Topology.build rng ~n ~out_degree:8 ~max_in:125
  | Some malicious ->
      Topology.build_with_correct_core rng ~malicious ~out_degree:8 ~max_in:125

let derive ?malicious ~scheme ~n ~seed () =
  let signers =
    Array.init n (fun i ->
        Signer.make scheme ~seed:(Printf.sprintf "lo-node-%d-%d" seed i))
  in
  {
    signers;
    directory = Directory.create ~ids:(Array.map Signer.id signers);
    topology = topology ?malicious ~n ~seed ();
    client = Signer.make scheme ~seed:(Printf.sprintf "client-%d" seed);
  }

let workload ~rate ~duration ~seed ~n =
  let config = { Lo_workload.Tx_gen.default_config with rate; duration } in
  Lo_workload.Tx_gen.generate (Rng.create ((seed * 97) + 13)) config ~num_nodes:n

let pick_malicious ~seed ~n ~fraction =
  if not (fraction >= 0. && fraction <= 1.) then
    invalid_arg
      (Printf.sprintf "pick_malicious: fraction %g is not in [0, 1]" fraction);
  let rng = Rng.create (seed + 5) in
  let malicious = Array.make n false in
  let num_bad =
    if fraction <= 0. then 0 else max 1 (int_of_float (fraction *. float_of_int n))
  in
  let rec mark remaining =
    if remaining > 0 then begin
      let i = Rng.int rng n in
      if malicious.(i) then mark remaining
      else begin
        malicious.(i) <- true;
        mark (remaining - 1)
      end
    end
  in
  mark num_bad;
  (malicious, num_bad)
