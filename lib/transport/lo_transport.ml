type handler = from:int -> tag:string -> Lo_codec.Reader.t -> unit

type t = {
  self : int;
  now : unit -> float;
  send : dst:int -> tag:string -> string -> unit;
  send_many : dsts:int list -> tag:string -> string -> unit;
  schedule : delay:float -> (unit -> unit) -> unit;
  subscribe : proto:string -> handler -> unit;
  set_restart_handler : (unit -> unit) -> unit;
  trace : Lo_obs.Trace.t option;
}
