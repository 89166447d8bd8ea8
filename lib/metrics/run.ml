open Stx_sim

type t = { stats : Stats.t; metrics : Registry.t }

let simulate ?seed ?policy ?htm_policy ?lock_timeout ?locks ?max_waiters
    ?max_steps ~cfg ~mode spec =
  let c = Collect.create ?policy:htm_policy () in
  let stats =
    Machine.run ?seed ?policy ?htm_policy ?lock_timeout ?locks ?max_waiters
      ?max_steps ~on_event:(Collect.handler c) ~cfg ~mode spec
  in
  { stats; metrics = Collect.registry c }

let merge a b =
  {
    stats = Stats.merge a.stats b.stats;
    metrics = Registry.merge a.metrics b.metrics;
  }
