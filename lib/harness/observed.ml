open Stx_sim
module Trace = Stx_trace.Trace
module Mcollect = Stx_metrics.Collect
module Mreg = Stx_metrics.Registry
module Tcollect = Stx_telemetry.Collect
module Series = Stx_telemetry.Series

type t = {
  stats : Stats.t;
  metrics : Mreg.t;
  trace : Trace.t;
  series : Series.t;
  errors : string list;
}

let run ?(window = 1000) ~seed ~htm_policy ~cfg ~mode spec =
  let threads = cfg.Stx_machine.Config.cores in
  let trace = Trace.create ~threads () in
  let mc = Mcollect.create ~policy:htm_policy () in
  let tc = Tcollect.create ~window ~threads () in
  let on_event ~time ev =
    Trace.handler trace ~time ev;
    Mcollect.handler mc ~time ev;
    Tcollect.handler tc ~time ev
  in
  let stats = Machine.run ~seed ~htm_policy ~cfg ~mode ~on_event spec in
  let metrics = Mcollect.registry mc in
  let horizon = stats.Stats.total_cycles in
  let series = Tcollect.finalize ~horizon tc in
  let prefixed check es = List.map (fun e -> check ^ ": " ^ e) es in
  let of_result check = function Ok () -> [] | Error es -> prefixed check es in
  let errors =
    of_result "trace" (Trace.check trace stats)
    @ of_result "metrics" (Mcollect.check metrics stats)
    @ prefixed "metrics online = replay"
        (Mreg.diff metrics (Mcollect.of_trace ~policy:htm_policy trace))
    @ prefixed "telemetry online = replay"
        (Series.diff series (Tcollect.of_trace ~window ~horizon trace))
  in
  { stats; metrics; trace; series; errors }
