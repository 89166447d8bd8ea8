open Stx_sim

(** The metrics collector: folds the {!Stx_sim.Machine} event stream into
    a {!Registry}.

    The same fold runs in two places — online, composed onto a live run's
    [on_event] hook, and offline, replaying a full {!Stx_trace.Trace}
    capture ({!of_trace}). Because both paths execute this one fold, over
    the per-thread attempt state of {!Stx_sim.Lifecycle}, on the same
    stream, the two registries must be {b equal},
    and {!check} reconciles either of them against the run's [Stats] with
    the same discipline as [Trace.check]: exact equalities wherever the
    simulator's accounting permits, explicit inequalities where it does
    not (see {!check}).

    {2 Metrics populated}

    Histograms (cycle values unless noted):
    - [stx_tx_latency_cycles{outcome=commit|abort}] — per-attempt latency
    - [stx_tx_retries{}] — aborted attempts preceding each commit
    - [stx_rset_lines{outcome=...}], [stx_wset_lines{outcome=...}] —
      read/write-set size (cache lines) when the attempt ended
    - [stx_lock_wait_cycles{outcome=acquired|timeout|aborted}] — advisory
      lock wait episodes (only episodes that actually spun)
    - [stx_backoff_cycles{}] — per-backoff delay
    - [stx_irrevocable_cycles{}] — latency of irrevocable commits

    Phase counters, the per-atomic-block profile:
    [stx_phase_cycles{ab=N,phase=P}] with [P] one of
    - [prefix] — speculative cycles before the first advisory-lock
      acquire (the whole attempt, for lock-free commits)
    - [lock_wait] — spinning on advisory locks inside committed attempts
    - [suffix] — serialized cycles from first acquire to commit
    - [irrevocable] — committed cycles under the global lock
    - [stm] — committed software-tier attempts ([htm-stm-lock] fallback;
      one undivided phase — their version-word traffic is reported by the
      [stx_stm_validation_cycles] counter instead)
    - [backoff] — inter-attempt polite backoff
    - [wasted] — cycles of aborted attempts (either tier)

    Mirror counters for reconciliation: [stx_commits],
    [stx_aborts{kind=...}], [stx_irrevocable_entries],
    [stx_lock_acquires], [stx_lock_timeouts], [stx_alps_executed],
    [stx_alps_fired]; and for the software tier [stx_stm_commits],
    [stx_stm_aborts{kind=...}] (kinds [stm_validation], [stm_hw_owned],
    [stm_lock_subscription], [stm_explicit] — the same labels the
    hardware-side [stx_aborts] uses for its [stm_conflict] kind), and
    [stx_stm_validation_cycles]. Software commits and aborts also feed
    [stx_commits], [stx_tx_latency_cycles], the set-size histograms and
    [stx_tx_retries], matching the [Stats] convention that the global
    commit/abort counters include the software tier.

    Every series additionally carries [policy=<label>], the
    {!Stx_policy.label} of the bundle the run executed under. The readers
    below ({!phase_cycles}, {!phase_total}, {!check}) match series by
    label {e subset}, so they read a single-policy registry transparently
    and sum across bundles in a merged one. *)

type t

val create : ?policy:Stx_policy.t -> unit -> t
(** [policy] (default {!Stx_policy.default}) is stamped as the [policy]
    label on every series; pass the bundle the machine runs under. *)

val handler : t -> time:int -> Machine.event -> unit
(** Shaped like [Machine.run]'s [?on_event], same as [Trace.handler]. *)

val registry : t -> Registry.t
(** The registry being populated (live — callers must not mutate). *)

val of_trace : ?policy:Stx_policy.t -> Stx_trace.Trace.t -> Registry.t
(** Replay a full capture through a fresh collector. Pass the same
    [policy] as the run that produced the trace for registries that
    compare equal to the online collector's. *)

val check : Registry.t -> Stats.t -> (unit, string list) result
(** Reconcile a collected registry against the run's inline counters.
    Exact: commits, aborts by kind, irrevocable entries, lock
    acquires/timeouts, ALP executions and firings, commit-latency sum =
    [useful_cycles], abort-latency sum = [wasted_cycles], backoff sum =
    [backoff_cycles], retries observations = commits, the software-tier
    counters ([stx_stm_commits], [stx_stm_aborts] total and by kind,
    [stx_stm_validation_cycles]) against their [Stats] fields, and the
    phase identities [prefix + lock_wait + suffix + irrevocable + stm =
    useful_cycles], [wasted = wasted_cycles], [backoff =
    backoff_cycles]. Bounded: acquired+timed-out wait episodes sum to at
    most [lock_wait_cycles] (an episode cut short by an abort folds its
    tail spin into the abort path, so the tracked episodes undercount).
    [Error] carries one message per divergence. *)

(** {2 Phase profile readout} *)

type phase = Prefix | Lock_wait | Suffix | Irrevocable | Stm | Backoff | Wasted

val phases : phase list
(** In presentation order. *)

val phase_label : phase -> string

val phase_cycles : Registry.t -> ab:int -> phase -> int
val abs_profiled : Registry.t -> int list
(** Atomic blocks with any phase attribution, ascending. *)

val phase_total : Registry.t -> phase -> int
(** Summed over atomic blocks. *)

val histogram_opt : Registry.t -> string -> Registry.labels -> Hist.t option
(** Every histogram series of that name whose labels include [labels],
    merged into a fresh value; [None] when none matches — for readers
    whose series may legitimately be absent. *)

val histogram : Registry.t -> string -> Registry.labels -> Hist.t
(** {!histogram_opt} for series that must exist — so [histogram reg
    "stx_tx_latency_cycles" [ ("outcome", "commit") ]] reads a registry
    of any policy label, or of several.
    @raise Failure naming the series when none matches: a lookup that
    finds nothing is a schema error, not a zero. *)
