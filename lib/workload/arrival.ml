module Rng = Lo_net.Rng

let poisson_times rng ~rate ~duration =
  if rate <= 0. || duration <= 0. then []
  else begin
    let mean = 1. /. rate in
    let rec go t acc =
      let t = t +. Rng.exponential rng ~mean in
      if t >= duration then List.rev acc else go t (t :: acc)
    in
    go 0. []
  end
