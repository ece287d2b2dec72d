(** The pipeline's one observation collector: a flat stage table and
    named counters, hierarchical trace spans with a Chrome
    [trace_event] exporter, and named histograms, all behind one lock.

    Every stage of the pipeline (compiler passes, trace generation,
    replay, figure tasks, pool jobs) runs under {!span}.  Three
    independent switches decide what a collector keeps; all three are
    off on a fresh collector and on {!global}:

    - {e enabled} (the CLI [--metrics] flag): {!span} accumulates the
      flat (stage, total, calls) table and {!add} bumps counters, both
      rendered by {!report}.  One row per distinct name, so a
      long-lived daemon's memory does not grow with its job count.
    - {e tracing} ([--trace FILE]): {!span} also retains one record per
      call — a unique id, the parent span running on the same domain
      (tracked through domain-local state, so concurrent {!Pool}
      workers each grow their own subtree), the domain's track id,
      wall-clock bounds and lazy [key=value] annotations — exported by
      {!chrome_json} for Perfetto or [chrome://tracing].
    - {e histograms}: {!Histo}s register by name.  Hot loops record
      into a local histogram and {!merge_histogram} once per replay (one
      lock acquisition); low-rate call sites use {!observe} directly.
      Bucket counts merge additively, so the registered quantiles are
      {e identical} whatever the domain count.

    Everything is zero-cost when off: {!span} costs two boolean tests,
    {!add}/{!observe}/{!merge_histogram} one, and simulation {!Result}s
    are byte-identical with any switch on or off — recording is
    strictly observational, like the [?timeline] sink. *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span on this track, or -1. *)
  track : int;  (** Domain id the span ran on. *)
  name : string;
  t0 : float;  (** {!now} seconds. *)
  t1 : float;
  args : (string * string) list;
}

type t

val create : unit -> t
(** Fresh collector with all three switches off. *)

val global : t
(** Process-wide collector the pipeline records into. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool
val set_tracing : t -> bool -> unit
val tracing : t -> bool
val set_histograms : t -> bool -> unit
val histograms_enabled : t -> bool

val now : unit -> float
(** Monotonic time in seconds from an arbitrary origin, suitable only
    for differences. *)

val span :
  ?args:(unit -> (string * string) list) -> t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f ()] under a named span: its wall time and
    one call land in the stage table when {!enabled}, and a record when
    {!tracing}, in which case [args] (evaluated lazily, only then)
    annotate the Chrome event.  Exceptions propagate; the span closes
    either way.  Nested and concurrent spans under one name accumulate
    into one stage row. *)

val add : t -> string -> int -> unit
(** [add t counter n] bumps [counter] by [n] (no-op unless
    {!enabled}). *)

val observe : t -> string -> float -> unit
(** Add one observation to the named histogram (no-op unless
    {!histograms_enabled}; takes the collector lock — fine at per-gap or
    per-decision rate, wrong inside the replay's per-request loop). *)

val merge_histogram : t -> string -> Histo.t -> unit
(** Merge a locally accumulated histogram into the named one (no-op
    unless {!histograms_enabled}).  One lock acquisition per call. *)

val stages : t -> (string * float * int) list
(** The stage table as [(name, total seconds, calls)], sorted by name —
    deterministic whatever order domains recorded in. *)

val counters : t -> (string * int) list
(** Every counter as [(name, value)], sorted by name. *)

val spans : t -> span list
(** Retained span records, ordered by id (= start order). *)

val histograms : t -> (string * Histo.t) list
(** Name-sorted copies of the registered histograms. *)

val reset : t -> unit
(** Drops stages, counters, span records and histograms; keeps the
    switches. *)

(** {1 Rendering} *)

val report : t -> string
(** Renders the stage table (stage, calls, total s, mean ms) and the
    counters as text tables, with derived throughput lines for the
    conventional pairs ([sim.requests]/[sim.replay],
    [trace.events]/[trace.gen]) — a line needs both its counter and its
    stage.  Rows are sorted by name, so two runs of the same workload
    differ only in the timing columns whatever [--domains] was.
    Returns [""] when nothing was recorded. *)

val histogram_report : t -> string
(** Count / mean / p50 / p90 / p99 / max per histogram, as a {!Table};
    [""] when nothing was observed. *)

val chrome_json : t -> Json.t
(** The span forest as a Chrome [trace_event] document:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}] with balanced
    [B]/[E] pairs per track (emitted by tree walk, so nesting is correct
    even for zero-width spans), thread-name metadata per track, and
    timestamps in microseconds relative to the earliest span. *)

val write_chrome_trace : t -> out_channel -> unit

val validate_chrome : Json.t -> (unit, string list) result
(** Structural check used by [dpmsim report-check] and the tests: a
    [traceEvents] array exists and is non-empty, every event carries
    [ph]/[pid]/[tid] (and [name]/[ts] for [B]/[E]), and per [(pid, tid)]
    the [B]/[E] events balance like parentheses with matching names. *)
