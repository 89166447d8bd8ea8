(** A labelled metrics registry: counters, gauges and {!Hist} histograms
    keyed by (name, sorted label set).

    Everything the registry exposes — iteration, the JSON snapshot, the
    store codec — is ordered by (name, labels), so two registries holding
    the same data render byte-identically no matter what order events
    arrived in. That determinism is what lets
    the online collector and the trace-replay collector be compared for
    exact equality (see {!Collect}).

    Hot writers resolve a series to a {!counter} or {!hist} handle once
    (checking and sorting its key then) and write the cached cell
    directly; {!inc}, {!observe} and {!set_gauge} resolve and write in
    one call. A series enters the registry on its {e first write}, so a
    handle never written adds nothing to any export.

    {!merge} follows the [Stats.merge] conventions: counters and
    histograms are accumulations and sum; gauges are high-water marks
    (capacities, not counts) and take the max. *)

type labels = (string * string) list

type value = Counter of int | Gauge of int | Histogram of Hist.t
(** [Histogram] exposes the registry's own histogram: callers must not
    mutate it. *)

type t

val create : unit -> t

(** Metric and label names must match [[a-zA-Z_][a-zA-Z0-9_]*]; label
    values may be any non-empty string (each exporter escapes what its
    framing needs — the store codec with backslash sequences, JSON per
    RFC 8259). An empty value, a malformed name, reusing a (name,
    labels) key at a different metric type, or duplicate label keys
    raises [Invalid_argument]:
    metric identity is part of each exporter's schema, so a malformed
    one is a programming error, not data. *)

(** {2 Writing} *)

type counter
type hist

val counter : t -> string -> labels -> counter
val hist : t -> string -> labels -> hist
(** Check and sort the key; the type-clash check waits for the first
    write. *)

val add : counter -> int -> unit
(** Add [by] (must be >= 0) to the counter, creating it at 0. *)

val record : hist -> int -> unit
(** Record one histogram observation (non-negative). *)

val inc : t -> ?by:int -> string -> labels -> unit
(** {!add} [by] (default 1) through a fresh handle. *)

val set_gauge : t -> string -> labels -> int -> unit
(** Raise a gauge to [v] if [v] exceeds its current value (create at [v]). *)

val observe : t -> string -> labels -> int -> unit
(** {!record} one observation through a fresh handle. *)

(** {2 Reading} *)

val counter_value : t -> string -> labels -> int
(** 0 when absent. *)

val gauge_value : t -> string -> labels -> int
(** 0 when absent. *)

val histogram : t -> string -> labels -> Hist.t option

val fold :
  (string -> labels -> value -> 'a -> 'a) -> t -> 'a -> 'a
(** In (name, labels) order. *)

val cardinality : t -> int

val merge : t -> t -> t
(** Fresh registry; counters/histograms sum, gauges max. Raises
    [Invalid_argument] if the two registries disagree on a key's type. *)

val equal : t -> t -> bool
val diff : t -> t -> string list
(** Human-readable divergences, [[]] iff {!equal}. *)

val schema_version : int
(** Version stamped into the JSON snapshot ({b 1}). Bump on any change
    to the snapshot's shape. *)

val to_json : t -> Stx_util.Json.t
val to_json_string : t -> string
(** The snapshot document:
    [{"schema":"stx-metrics","version":1,"metrics":[...]}] with one
    entry per metric in (name, labels) order. *)

val encode : t -> string list
(** Line-oriented codec for the result store: one line per metric,
    deterministic order, values space-separated; label values travel
    backslash-escaped so free-form values round-trip. *)

val decode : string list -> t option
(** [None] on any malformed line — the store treats that as corruption. *)
