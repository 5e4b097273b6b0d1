module Rng = Lo_net.Rng

type policy = { base : float; factor : float; cap : float; jitter : float }

let default_policy = { base = 0.05; factor = 1.7; cap = 1.5; jitter = 0.25 }

let delay p ~rng ~attempts =
  let raw = p.base *. (p.factor ** float_of_int attempts) in
  let capped = Float.min p.cap raw in
  let jittered =
    if p.jitter <= 0. then capped
    else capped *. (1. +. (p.jitter *. ((Rng.float rng 2.0) -. 1.0)))
  in
  Float.max 1e-4 jittered

type t = {
  rng : Rng.t;
  mutable attempts : int;
  mutable next_at : float;
}

let create ~rng () = { rng; attempts = 0; next_at = Float.neg_infinity }

let ready t ~now = now >= t.next_at
let next_at t = t.next_at
let attempts t = t.attempts

let failed t ~now =
  t.next_at <- now +. delay default_policy ~rng:t.rng ~attempts:t.attempts;
  t.attempts <- t.attempts + 1

let opened t =
  t.attempts <- 0;
  t.next_at <- Float.neg_infinity

let lost t ~now =
  t.attempts <- 0;
  t.next_at <- now +. delay default_policy ~rng:t.rng ~attempts:0
