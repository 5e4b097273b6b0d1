let make ~net ~mux ~node : Lo_transport.t =
  {
    Lo_transport.self = node;
    now = (fun () -> Network.now net);
    send =
      (fun ~dst ~tag payload -> Network.send net ~src:node ~dst ~tag payload);
    send_many =
      (fun ~dsts ~tag payload ->
        Network.send_many net ~src:node ~dsts ~tag payload);
    schedule = (fun ~delay fn -> Network.schedule net ~delay (fun _ -> fn ()));
    subscribe =
      (fun ~proto handler ->
        Mux.register mux node ~proto (fun _net ~from ~tag payload ->
            handler ~from ~tag (Lo_codec.Reader.of_string payload)));
    set_restart_handler =
      (fun fn -> Network.set_restart_handler net node (fun _ -> fn ()));
    trace = Network.trace net;
  }
