type t =
  | Honest
  | Silent_censor
  | Tx_censor of (Tx.t -> bool)
  | Block_injector
  | Block_reorderer
  | Blockspace_censor of (Tx.t -> bool)
  | Equivocator

let drops_all_messages = function Silent_censor -> true | _ -> false
let censors_tx t tx = match t with Tx_censor pred -> pred tx | _ -> false
let forks_log = function Equivocator -> true | _ -> false

let shows_fork_to t ~peer_index =
  match t with Equivocator -> peer_index mod 2 = 1 | _ -> false

type block_ctx = {
  find_txid : string -> Tx.t option;
  forge_tx : unit -> Tx.t;
}

let cap n xs = List.filteri (fun i _ -> i < n) xs

let bundles_of_sizes txids sizes =
  (* Regroup a flat txid list by bundle sizes. *)
  let rec go ids sizes acc =
    match sizes with
    | [] -> (List.rev acc, ids)
    | s :: rest ->
        let bundle = cap s ids in
        let remaining = List.filteri (fun i _ -> i >= s) ids in
        go remaining rest (bundle :: acc)
  in
  go txids sizes []

let tamper_block t ctx (out : Policy.build_output) =
  match t with
  | Block_injector -> begin
      (* Forge a fresh high-fee transaction and smuggle it into the
         front of the first non-empty bundle. *)
      let tx = ctx.forge_tx () in
      let bundles, appendix = bundles_of_sizes out.txids out.bundle_sizes in
      let injected = ref false in
      let bundles =
        List.map
          (fun b ->
            if (not !injected) && b <> [] then begin
              injected := true;
              tx.Tx.id :: b
            end
            else b)
          bundles
      in
      if !injected then
        {
          out with
          txids = List.concat bundles @ appendix;
          bundle_sizes = List.map List.length bundles;
        }
      else out
    end
  | Block_reorderer -> begin
      (* Order inside bundles by fee, defeating the canonical shuffle. *)
      let bundles, appendix = bundles_of_sizes out.txids out.bundle_sizes in
      let fee_of txid =
        match ctx.find_txid txid with Some tx -> tx.Tx.fee | None -> 0
      in
      let bundles =
        List.map
          (fun b ->
            List.sort
              (fun a b ->
                match Int.compare (fee_of b) (fee_of a) with
                | 0 -> String.compare a b
                | c -> c)
              b)
          bundles
      in
      { out with txids = List.concat bundles @ appendix }
    end
  | Blockspace_censor pred -> begin
      let bundles, appendix = bundles_of_sizes out.txids out.bundle_sizes in
      let keep txid =
        match ctx.find_txid txid with Some tx -> not (pred tx) | None -> true
      in
      let bundles = List.map (List.filter keep) bundles in
      {
        out with
        txids = List.concat bundles @ appendix;
        bundle_sizes = List.map List.length bundles;
      }
    end
  | Honest | Silent_censor | Tx_censor _ | Equivocator -> out
