(** Machine-readable run reports and benchmark snapshots.

    {!of_spec} executes a {!Run.spec} with timeline recording and the
    {!Dpm_util.Telemetry} stage table and histograms switched on, and
    condenses everything the pipeline knows about the run into a single
    JSON document (schema {!schema_version}): per-scheme energies and
    normalized ratios, fault counters, per-disk timeline summaries with
    the independently re-integrated energy and the invariant-check
    verdict, the registered latency/queue/gap histograms (each row with
    its mergeable {!Dpm_util.Histo.to_json} buckets), and the flat stage
    timings and counters.  The same document decodes ({!decode}),
    validates ({!validate}) and, decoded, renders as a markdown digest
    ({!markdown}) — the
    golden check in [make report-check] compares its
    {!Dpm_util.Json.schema_outline}, so values may change freely while
    the shape is pinned.

    {!bench_snapshot} is the benchmark harness's analogue (schema
    {!bench_schema_version}): per-figure wall times plus the same stage
    and counter tables, the repo's first perf-trajectory artifact. *)

val schema_version : string
(** ["dpm-report/1"]. *)

val bench_schema_version : string
(** ["dpm-bench/1"]. *)

val document :
  label:string ->
  mode:Dpm_sim.Engine.mode ->
  version:Dpm_compiler.Pipeline.version ->
  faults:Dpm_sim.Fault.spec ->
  sim:Dpm_sim.Config.t ->
  ?telemetry:Dpm_util.Telemetry.t ->
  timeline_of:(Scheme.t -> Dpm_sim.Timeline.t) ->
  (Scheme.t * Dpm_sim.Result.t) list ->
  Dpm_util.Json.t
(** Assemble a {!schema_version} document from already-executed results
    plus their per-scheme timelines.  [Base] anchors the normalized
    columns when present, otherwise the first result does.  [telemetry]
    (default none → empty [histograms] / [stages] / [counters] arrays)
    supplies the collector-backed sections — the service omits it
    because the process-wide collector is shared across concurrent
    jobs, and a job's response must be a function of the job alone.
    The document shape is identical either way. *)

val fault_json : Dpm_sim.Result.fault_stats -> Dpm_util.Json.t
(** A scheme row's [faults] object (the dpm-agg/1 per-scheme sums use
    it too). *)

val of_spec : Run.spec -> (Dpm_util.Json.t, Run.error) result
(** The one report entry point: {!Run.observe} the spec with
    {!Dpm_util.Telemetry.global}'s stage table and histograms enabled
    (both switches restored afterwards), and build its document.  Recording is observational, so the simulated numbers
    are the ones every other entry point produces.  [dpmsim report]
    passes a spec with [Base] joined (it anchors the normalized
    columns); a daemon job is the same value reported without the
    shared collector (see {!document}). *)

type scheme_row = {
  scheme : string;
  energy_j : float;
  exec_time_s : float;
  energy_norm : float;
  time_norm : float;
  requests : int;
  faults : Dpm_sim.Result.fault_stats;
  sim_end_s : float;  (** The row's [timeline.sim_end_s]. *)
  reintegrated_energy_j : float;  (** [timeline.reintegrated_energy_j]. *)
  energy_match : bool;  (** [timeline.energy_match]. *)
  invariants_ok : bool;  (** [timeline.invariants_ok]. *)
}

type histogram = {
  name : string;
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
  buckets : Dpm_util.Histo.t;  (** The mergeable [buckets]. *)
}

type t = {
  benchmark : string;
  mode : string;
  transform : string;
  faults : string;
  sched : string;
  fleet : string;  (** Semicolon-joined model slugs; [""] when homogeneous. *)
  domains : int;
  schemes : scheme_row list;
  histograms : histogram list;
  stages : (string * float * int) list;  (** Name, total seconds, calls. *)
}

val decode : Dpm_util.Json.t -> (t, string) result
(** The one reader of a {!schema_version} document ({!validate},
    {!markdown}'s callers, [dpmsim aggregate] and [dpmsim submit] go
    through it): the schema tag and every field above, the first missing
    or mistyped one being the error, named by its path
    (["schemes[1].requests: missing"]).  The histogram and stage arrays
    may be empty, not absent. *)

val validate : Dpm_util.Json.t -> (t, string list) result
(** {!decode}, then the verdicts: at least one scheme, and every
    scheme's timeline invariants ok.  Used by [dpmsim report-check]. *)

val markdown : t -> string
(** Renders a decoded report as a human-readable markdown digest
    (scheme table, timeline checks, fault counters, histogram quantiles,
    stage timings). *)

val bench_snapshot :
  ?extra:(string * Dpm_util.Json.t) list ->
  figures:(string * float) list ->
  unit ->
  Dpm_util.Json.t
(** [bench_snapshot ~figures ()] packages per-figure wall-clock seconds
    with {!Dpm_util.Telemetry.global}'s stage and counter tables as a
    {!bench_schema_version} document.  [extra] fields are appended verbatim (the harness's
    throughput and sweep sections ride along there). *)

val validate_bench : Dpm_util.Json.t -> (unit, string list) result
