(** Auto-tuning parameter-space sweeps (ROADMAP item 3).

    A sweep is a declarative list of {!axis} grids over the simulator
    configuration knobs.  {!expand} takes their cartesian product (in
    axis order, values in the given order — fully deterministic);
    {!run} executes every (workload x point) cell through
    {!Run.exec_all} fanned out over [Dpm_util.Pool], so each cell is a
    complete scheme comparison normalized against its own [Base]
    replay, bit-identical at any domain count.

    The analysis layers on top are pure functions of the {!outcome}:
    {!best} (lowest-energy point per workload x scheme), {!winners}
    (lowest-energy {e implementable} scheme per workload — ideal/oracle
    schemes are reported but never win), {!sensitivity} (per-axis-value
    marginal means), and the [dpm-sweep/1] JSON / markdown / text
    renderings.  {!best_spec} reifies a winner back into a replayable
    {!Run.spec} — persisting it with {!Run.to_file} and re-running it
    must reproduce the winning row bit-for-bit. *)

type axis =
  | Tpm_threshold of float list  (** Fixed TPM threshold, seconds. *)
  | Drpm_lower of float list  (** DRPM lower degradation tolerance. *)
  | Drpm_upper of float list  (** DRPM upper degradation tolerance. *)
  | Drpm_window of int list  (** DRPM averaging window, requests. *)
  | Drpm_idle_interval of float list
      (** DRPM idle-controller base interval, seconds. *)
  | Drpm_floor_depth of int list
      (** RPM-drift floor depth (DRPM idle control and the Adaptive
          policy's parking level). *)
  | Queue_depth of int list  (** Per-disk queue depth. *)
  | Pm_call_overhead of float list
      (** Per-directive overhead, seconds (compiler-managed schemes). *)
  | Pre_activation_lead of float list
      (** Extra pre-activation guard band, seconds. *)
  | Sched of Dpm_sim.Config.sched list
      (** Per-disk request-scheduling discipline. *)

val axis_name : axis -> string
(** Canonical kebab-case name (the CLI/JSON vocabulary):
    ["tpm-threshold"], ["drpm-lower"], ["drpm-upper"], ["drpm-window"],
    ["drpm-idle-interval"], ["drpm-floor-depth"], ["queue-depth"],
    ["pm-call-overhead"], ["pre-activation-lead"], ["sched"]. *)

val axis_values : axis -> float list
(** The grid values, integer axes widened to floats.  The categorical
    [Sched] axis is encoded as the float index of each discipline in
    [Dpm_sim.Config.sched_names]; reports render it back by name. *)

type point = (string * float) list
(** One grid coordinate: [(axis_name, value)] pairs in axis order. *)

val apply : Dpm_sim.Config.t -> point -> Dpm_sim.Config.t
(** Fold the point's settings over a configuration with the
    [Config.with_*] updaters.  Raises [Invalid_argument] on an unknown
    axis name (points built by {!expand} are always valid). *)

val expand : axis list -> point list
(** Cartesian product; [expand [] = [[]]] (one empty point). *)

val axes_of_string : string -> (axis list, string) result
(** Parse the CLI grammar: [";"]-separated ["axis=v1,v2,..."] clauses,
    e.g. ["tpm-threshold=4,15.2;drpm-lower=0.02,0.08"].  Integer axes
    round their values; the [sched] axis takes scheduler names
    (["sched=fcfs,sstf,scan"]).  Unknown axes, empty value lists and malformed
    numbers produce a readable error. *)

val point_to_string : point -> string
(** ["tpm-threshold=4, drpm-lower=0.02"] — for tables and logs. *)

(** {1 Running the grid} *)

type cell = {
  workload : string;
  point : point;
  results : (Scheme.t * Dpm_sim.Result.t) list;
}

type outcome = {
  axes : axis list;
  workloads : string list;
  schemes : Scheme.t list;  (** Always includes [Base]. *)
  cells : cell list;  (** Workload-major, then expansion order. *)
}

val default_schemes : Scheme.t list
(** [Base; TPM; DRPM; Adaptive; IDRPM] — the fixed baselines, the
    auto-tuner, and the oracle bound (IDRPM, since the auto-tuner is a
    modulating scheme). *)

val spec_of :
  schemes:Scheme.t list -> workload:string -> point -> Run.spec
(** The exact spec a cell runs: benchmark workload with the point's
    configuration injected via [Run.spec ~sim]. *)

val run :
  ?schemes:Scheme.t list ->
  ?domains:int ->
  axes:axis list ->
  workloads:string list ->
  unit ->
  (outcome, Run.error) result
(** Execute the full grid.  [Base] is added to [schemes] if absent
    (every normalization needs its anchor).  [domains] is passed to
    [Dpm_util.Pool.map]; cells share nothing, so results are identical
    at any domain count.  Every point's configuration is built first: a
    point that breaks a {!Dpm_sim.Config} invariant is
    [Run.Malformed_spec] naming the point, and nothing runs.  The first
    failing cell aborts the sweep. *)

(** {1 Analysis} *)

val best :
  outcome -> (string * Scheme.t * cell * Dpm_sim.Result.t) list
(** Per (workload, non-Base scheme): the cell with the lowest absolute
    energy for that scheme, ties broken toward the earliest grid point.
    Ordered workload-major, then scheme order. *)

val winners : outcome -> (Scheme.t * cell * Dpm_sim.Result.t) list
(** Per workload: the lowest-energy entry of {!best} over the
    {e implementable} schemes (excluding [Base] and
    [Scheme.is_ideal]). *)

val best_spec : outcome -> workload:string -> Run.spec option
(** The winner's cell as a replayable spec (same schemes as the sweep,
    so re-running reproduces the whole row). *)

val sensitivity :
  outcome -> (string * float * (Scheme.t * float) list) list
(** For each (axis, value): the mean normalized energy of every
    non-Base scheme across all cells holding that value, marginalizing
    over workloads and the other axes.  [nan] if the axis value matches
    no cell. *)

(** {1 Reports} *)

val schema_version : string
(** ["dpm-sweep/1"]. *)

val to_json : outcome -> Dpm_util.Json.t
(** The [dpm-sweep/1] document: axes, grid cells (absolute and
    normalized energy/time per scheme), best table, winners,
    sensitivities. *)

val validate : Dpm_util.Json.t -> (unit, string list) result
(** Structural check of a [dpm-sweep/1] document (schema tag, non-empty
    grid, required numeric fields) — the CI artifact gate. *)

val render : outcome -> string
(** Plain-text report: axes, best-configuration table, winners,
    per-axis sensitivity matrix. *)

val markdown : outcome -> string
(** The same report as GitHub-flavored markdown tables. *)

val normalized_table :
  metric:[ `Energy | `Time ] ->
  schemes:Scheme.t list ->
  ?extra:string * (string -> float option) ->
  (string * (Scheme.t * Dpm_sim.Result.t) list) list ->
  string
(** The Fig 3/4 matrix shape shared with [bin/tune]: one row per
    workload (which must include a [Base] result to normalize against),
    one ["%8.3f"] column per scheme, and an AVG row.  [extra] appends
    one more column computed per workload name (["-"] when [None]). *)
