open Stx_sim

(** One checked run: a simulation with every observation plane attached
    and every reconciliation between them executed.

    The paper's claim is read from the metrics collector's
    prefix/lock-wait/suffix split, and that split is only as trustworthy
    as its agreement with the run's inline [Stats] and its event trace.
    {!run} owns that agreement: it attaches a full-capture
    {!Stx_trace.Trace}, the metrics {!Stx_metrics.Collect} and the
    telemetry {!Stx_telemetry.Collect} through one handler, runs the
    machine, and then executes all four checks — the trace checker, the
    registry-vs-stats reconciliation, and the online = replay equality
    of both collectors. The binaries and reports that observe a closed-loop
    run all go through here, so none of them can pick a subset of checks
    (the serve harness wires its own collectors around its request
    plane). *)

type t = {
  stats : Stats.t;
  metrics : Stx_metrics.Registry.t;  (** the online registry *)
  trace : Stx_trace.Trace.t;  (** full capture *)
  series : Stx_telemetry.Series.t;
      (** the online series, padded to the run's makespan *)
  errors : string list;
      (** [[]] iff every check holds; otherwise one message per
          divergence, prefixed by its check: [trace:], [metrics:],
          [metrics online = replay:] or [telemetry online = replay:] *)
}

val run :
  ?window:int ->
  seed:int ->
  htm_policy:Stx_policy.t ->
  cfg:Stx_machine.Config.t ->
  mode:Stx_core.Mode.t ->
  Machine.spec ->
  t
(** [Machine.run] with the three collectors attached, followed by the
    four reconciliations. [window] (default 1000) is the telemetry
    window width in simulated cycles; the thread count is [cfg]'s core
    count. *)
