let exposures entries =
  List.filter_map
    (fun { Trace.at; ev } ->
      match ev with
      | Event.Expose { node; peer } -> Some (at, node, peer)
      | _ -> None)
    entries

let first_detection entries ~peer =
  List.find_map
    (fun { Trace.at; ev } ->
      match ev with
      | Event.Suspect { node; peer = p } when p = peer && node <> peer ->
          Some (at, "suspect")
      | Event.Expose { node; peer = p } when p = peer && node <> peer ->
          Some (at, "expose")
      | Event.Violation { node; peer = p; _ } when p = peer && node <> peer ->
          Some (at, "violation")
      | _ -> None)
    entries

let accepts_of_creator entries ~creator =
  List.filter_map
    (fun { Trace.at; ev } ->
      match ev with
      | Event.Block_accept { node; creator = c; height; _ }
        when c = creator && node <> creator ->
          Some (at, node, height)
      | _ -> None)
    entries
