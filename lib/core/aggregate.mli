(** Fleet-level sweep aggregation — schema [dpm-agg/1].

    A tuning sweep (or any batch of runs) leaves a directory of
    [dpm-report/1] documents and [dpm-meter/1] sample files behind; this
    module folds them into one fleet dashboard: per-scheme run counts,
    total energy and normalized-energy spread across the report files,
    exactly-merged telemetry histograms ({!Dpm_util.Histo.of_json} +
    [merge] — bucket counts add pointwise, so the combined quantiles are
    what one big run would have reported), and, from the meter files,
    fleet-wide peak/mean power plus a per-model energy attribution
    (meter sections carry their fleet slugs, assigned round-robin by
    disk id).

    Reports and meters stay separate sections of the document — a run
    that produced both a report and a meter file is {e not} counted
    twice anywhere.  Files that parse as neither schema are skipped and
    listed with a reason, never fatal; only a missing path or an
    unreadable directory is an error. *)

type t
(** An aggregate over a set of source files. *)

val schema_version : string
(** ["dpm-agg/1"]. *)

val of_paths : string list -> (t, string) result
(** Classify and fold the given files, and each given directory's
    entries sorted by name, in order: a [.json] file whose [schema] is
    [dpm-report/1] joins the reports section, a [.jsonl] file whose
    first line is a [dpm-meter/1] header joins the meters section,
    anything else (spec files, aggregate outputs, malformed documents)
    is recorded as skipped with a reason.  A report is read by
    {!Report.decode}; one it refuses is skipped whole, naming the field
    (["skipped: schemes[1].energy_j: expected a number"]).  [Error]
    names the first path that does not exist
    (["PATH: no such file or directory"]) or a directory that cannot be
    read. *)

val sources : t -> (string * string) list
(** [(path, classification)] per input file, in processing order —
    ["report"], ["meter"], or ["skipped: <reason>"]. *)

val to_json : t -> Dpm_util.Json.t
(** The [dpm-agg/1] document: a [sources] manifest, a [reports] section
    (per-scheme totals, summed fault counters, merged histograms) and a
    [meters] section (fleet peak/mean power, per-scheme and per-model
    energy).  Every field is emitted unconditionally, zero-valued when
    no input of that kind was seen. *)

val render : t -> string
(** Plain-text dashboard ({!Dpm_util.Table}). *)

val markdown : t -> string
(** Markdown digest of the same tables. *)

val validate : Dpm_util.Json.t -> (unit, string list) result
(** Structural check of a [dpm-agg/1] document: schema tag, the
    [reports]/[meters] sections present, at least one source counted.
    When no input was aggregated, the errors first list each source as
    ["PATH: skipped: REASON"], then say so.  [dpmsim aggregate]
    validates its own output before writing it and prints every
    error. *)
