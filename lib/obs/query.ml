let exposures entries =
  List.filter_map
    (fun { Trace.at; ev } ->
      match ev with
      | Event.Expose { node; peer } -> Some (at, node, peer)
      | _ -> None)
    entries
