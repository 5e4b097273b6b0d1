module Rng = Lo_net.Rng

type record = { at : float; fee : int; size : int }

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc prev_at = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> begin
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (lineno + 1) acc prev_at rest
        else
          match String.split_on_char ',' line with
          | [ at; fee; size ] -> begin
              match
                (float_of_string_opt (String.trim at),
                 int_of_string_opt (String.trim fee),
                 int_of_string_opt (String.trim size))
              with
              | Some at, Some fee, Some size
                when at >= prev_at && fee >= 0 && size > 0 ->
                  go (lineno + 1) ({ at; fee; size } :: acc) at rest
              | Some at, _, _ when at < prev_at ->
                  Error (Printf.sprintf "line %d: timestamps must be non-decreasing" lineno)
              | _ -> Error (Printf.sprintf "line %d: malformed fields" lineno)
            end
          | _ -> Error (Printf.sprintf "line %d: expected 3 comma-separated fields" lineno)
      end
  in
  go 1 [] neg_infinity lines

let to_specs rng records ~num_nodes =
  if num_nodes <= 0 then invalid_arg "Trace.to_specs";
  List.mapi
    (fun i r ->
      {
        Tx_gen.created_at = r.at;
        origin = Rng.int rng num_nodes;
        fee = r.fee;
        size = r.size;
        nonce = i;
      })
    records

let stats records =
  match records with
  | [] -> None
  | first :: _ ->
      let count = List.length records in
      let last = List.nth records (count - 1) in
      let min_fee = List.fold_left (fun m r -> min m r.fee) max_int records in
      let max_fee = List.fold_left (fun m r -> max m r.fee) 0 records in
      Some (count, last.at -. first.at, min_fee, max_fee)
