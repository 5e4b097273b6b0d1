module Writer = Lo_codec.Writer
module Reader = Lo_codec.Reader

type t =
  | Conflicting_digests of {
      older : Commitment.digest;
      newer : Commitment.digest;
    }
  | Block_bundle_violation of {
      block : Block.t;
      older : Commitment.digest;
      newer : Commitment.digest;
      omitted_tx : Tx.t option;
    }

let accused = function
  | Conflicting_digests { older; _ } -> older.Commitment.owner
  | Block_bundle_violation { block; _ } -> block.Block.creator

module Int_set = Set.Make (Int)

let verify_conflicting scheme ~older ~newer =
  String.equal older.Commitment.owner newer.Commitment.owner
  && older.Commitment.seq <= newer.Commitment.seq
  && Commitment.verify scheme older
  && Commitment.verify scheme newer
  && Commitment.check_extension ~older ~newer () = Commitment.Inconsistent

let verify_block_violation scheme ~block ~older ~newer ~omitted_tx =
  let open Commitment in
  String.equal older.owner block.Block.creator
  && String.equal newer.owner block.Block.creator
  && newer.seq = older.seq + 1
  && newer.seq <= block.Block.commit_seq
  && Block.verify_signature scheme block
  && Commitment.verify scheme older
  && Commitment.verify scheme newer
  &&
  match check_extension ~older ~newer () with
  | Inconsistent | Inconclusive | Plausible -> false
  | Consistent bundle ->
      let bundle_seq = newer.seq in
      let bundle_set = Int_set.of_list bundle in
      let block_bundle =
        List.assoc_opt bundle_seq (Block.bundle_txids block)
        |> Option.value ~default:[]
      in
      let block_ids = List.map Short_id.of_txid block_bundle in
      let block_set = Int_set.of_list block_ids in
      let omission_reason id = List.assoc_opt id block.Block.omissions in
      begin
        match omitted_tx with
        | Some tx ->
            (* Censorship proof: committed, fee-eligible, yet absent
               without a sustainable excuse. *)
            let id = Tx.short_id tx in
            Int_set.mem id bundle_set
            && (not (Int_set.mem id block_set))
            && tx.Tx.fee >= block.Block.fee_threshold
            && (match omission_reason id with
               | None | Some Block.Low_fee -> true
               | Some Block.Missing_content | Some Block.Settled -> false)
        | None ->
            (* Injection or re-ordering proof, recomputed from the
               decoded bundle. *)
            let injected =
              Int_set.exists (fun id -> not (Int_set.mem id bundle_set)) block_set
            in
            let reordered =
              Int_set.subset block_set bundle_set
              &&
              let included = Int_set.elements block_set in
              let expected =
                Order.sort_bundle ~seed:block.Block.prev_hash ~bundle_seq
                  included
              in
              block_ids <> expected
            in
            injected || reordered
      end

let verify scheme = function
  | Conflicting_digests { older; newer } ->
      verify_conflicting scheme ~older ~newer
  | Block_bundle_violation { block; older; newer; omitted_tx } ->
      verify_block_violation scheme ~block ~older ~newer ~omitted_tx

let encode w = function
  | Conflicting_digests { older; newer } ->
      Writer.u8 w 0;
      Commitment.encode w older;
      Commitment.encode w newer
  | Block_bundle_violation { block; older; newer; omitted_tx } ->
      Writer.u8 w 1;
      Writer.bytes w (Block.to_string block);
      Commitment.encode w older;
      Commitment.encode w newer;
      (match omitted_tx with
      | None -> Writer.u8 w 0
      | Some tx ->
          Writer.u8 w 1;
          Tx.encode w tx)

let decode ?tx_pool r =
  match Reader.u8 r with
  | 0 ->
      let older = Commitment.decode r in
      let newer = Commitment.decode r in
      Conflicting_digests { older; newer }
  | 1 ->
      let block = Block.of_string (Reader.bytes r) in
      let older = Commitment.decode r in
      let newer = Commitment.decode r in
      let omitted_tx =
        match Reader.u8 r with
        | 0 -> None
        | 1 ->
            Some
              (match tx_pool with
              | None -> Tx.decode r
              | Some pool -> Interner.Tx_pool.decode pool r)
        | _ -> raise (Reader.Malformed "evidence omitted-tx flag")
      in
      Block_bundle_violation { block; older; newer; omitted_tx }
  | _ -> raise (Reader.Malformed "evidence kind")

let describe = function
  | Conflicting_digests { older; newer } ->
      Printf.sprintf "conflicting digests (seq %d vs %d)" older.Commitment.seq
        newer.Commitment.seq
  | Block_bundle_violation { block; newer; omitted_tx; _ } ->
      Printf.sprintf "block %d violates bundle %d%s" block.Block.height
        newer.Commitment.seq
        (match omitted_tx with Some _ -> " (censorship)" | None -> "")
