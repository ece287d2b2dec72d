(** The single non-raising entry point for running experiments.

    The layers underneath raise on misuse ([Workloads.Suite.find],
    [Fault.plan], the replay engine itself): fine for library code
    holding values it constructed, wrong for drivers handling user
    input.  A {!spec} is the one job value — a workload, scheme names
    and one {!Experiment.setup} — shared by [bin/dpmsim], [bin/tune],
    the sweep harness and the daemon.  {!exec_all} runs it and returns
    either results or a typed {!error} with a printable message; no
    exception escapes.

    {[
      match Run.exec_all (Run.spec ~scheme_names:[ "Base"; "CMDRPM" ]
                            ?faults (Run.Benchmark "swim")) with
      | Ok results -> ...
      | Error e -> prerr_endline (Run.error_message e)
    ]} *)

type workload =
  | Benchmark of string  (** A suite benchmark by name (resolved here). *)
  | Program of Dpm_ir.Program.t * Dpm_layout.Plan.t
      (** An already-built program and layout plan. *)
  | Trace_file of string
      (** A saved trace file ({!Dpm_trace.Trace.save} format), replayed
          under each scheme via [Experiment.replay_all] — no compilation
          or generation.  Parse failures come back as
          {!Malformed_trace}, never as an exception. *)
  | Open_loop of { load : Dpm_trace.Openloop.t; sources : string list }
      (** An open-loop multi-tenant workload: the load descriptor's
          arrival plan launches independent tenants, each a copy of one
          [sources] entry (a suite benchmark name, or a trace-file path
          when no benchmark matches), merged onto one shared stream
          ({!Dpm_trace.Openloop.merge}) and replayed under each scheme
          via [Experiment.replay_all].  A name that is neither a
          benchmark nor an existing file is {!Unknown_benchmark}. *)

type error =
  | Unknown_benchmark of string
  | Unknown_scheme of string
  | Invalid_faults of string
  | Malformed_trace of string
      (** A [Trace_file] that failed to parse; the message carries
          [path:line:] context. *)
  | Malformed_spec of string
      (** A [dpm-spec/1] document that failed to parse or validate
          ({!of_json}/{!of_file}), or a spec that cannot be serialized
          ({!to_json} on a [Program] workload). *)
  | Run_failure of string
      (** An exception trapped while compiling/replaying (its printed
          form). *)
  | Queue_full of { retry_after : float }
      (** Service admission rejected: the bounded queue is at capacity.
          The 429-style backpressure signal — clients should wait
          [retry_after] seconds before resubmitting. *)
  | Shutting_down
      (** Service admission rejected: the daemon is draining and accepts
          no new jobs. *)
  | Protocol_error of string
      (** A malformed or unexpected frame on the service wire (unknown
          op, invalid JSON, unknown job id). *)

val error_message : error -> string
(** Human-readable message, listing the valid names where relevant. *)

val error_to_json : error -> Dpm_util.Json.t
(** Machine-readable form: [{"error": <kind>, ...fields,
    "message": <error_message>}].  Used verbatim as the service's error
    frames. *)

val error_of_json : Dpm_util.Json.t -> (error, string) result
(** Inverse of {!error_to_json} (exact round-trip). *)

type spec
(** A fully described run: workload, scheme names, the setup it runs
    under, and optional observational timeline sinks. *)

val spec :
  ?schemes:Scheme.t list ->
  ?scheme_names:string list ->
  ?setup:Experiment.setup ->
  ?sim:Dpm_sim.Config.t ->
  ?mode:Dpm_sim.Engine.mode ->
  ?version:Dpm_compiler.Pipeline.version ->
  ?faults:Dpm_sim.Fault.spec ->
  ?timeline:(Scheme.t -> Dpm_sim.Timeline.sink option) ->
  ?stream:bool ->
  ?batch:int ->
  ?core:Dpm_sim.Engine.core ->
  workload ->
  spec
(** [spec workload] runs all seven schemes under the workload's default
    setup: {!Experiment.default_setup}, with a [Benchmark]'s calibrated
    compiler noise.  [setup] replaces that base; each of
    [sim]/[mode]/[version]/[faults]/[stream]/[batch]/[core] then
    replaces its field of the base, once, here ([sim] replaces the whole
    simulator configuration: the sweep harness injects its per-point
    configs this way without disturbing the calibrated noise).
    [stream] applies to trace files only — a [Trace_file] workload and
    an [Open_loop] workload's file sources are read chunk by chunk per
    replay rather than loaded once ({!Experiment.source}); a generated
    trace is built once either way.
    [scheme_names] (resolved by {!schemes_of}, checked at {!exec} time)
    takes precedence over [schemes].  [timeline] supplies a per-scheme
    {!Dpm_sim.Timeline.sink} (as in [Experiment.run_all]); the caller
    keeps the sinks and reads the logs back after {!exec_all}. *)

val workload_label : workload -> string
(** Stable display name: the benchmark or program name, the trace-file
    path, or ["open-loop(src+...)"] — what reports use as their
    [benchmark] field. *)

val describe : spec -> (string * Experiment.setup, error) result
(** The workload label and the setup this spec runs under, once the
    fault spec, the setup invariants ([batch >= 1], [cache_blocks >= 0],
    a finite [noise >= 0], and [sim.retain_busy] on when the schemes
    include ITPM or IDRPM, which are derived from the Base replay's busy
    intervals; else {!Malformed_spec} naming the field) and the
    benchmark name validate — what a report header or a service log
    needs without executing anything.  {!exec_all} checks the same. *)

val with_timeline :
  (Scheme.t -> Dpm_sim.Timeline.sink option) -> spec -> spec
(** Attach per-scheme sinks to an already-built spec — how the CLI wires
    power meters onto a [dpm-spec/1] file it parsed ({!of_file} cannot
    carry sinks: they are live mutable state, not data). *)

val schemes_of : spec -> (Scheme.t list, error) result
(** The schemes this spec will run, in order (names resolved — the one
    place {!Unknown_scheme} can surface without executing). *)

val sim_config : spec -> Dpm_sim.Config.t
(** The setup's simulator configuration — what a meter needs to resolve
    per-disk power models before the run. *)

val exec_all : spec -> ((Scheme.t * Dpm_sim.Result.t) list, error) result
(** Resolve names, validate the setup, build the workload and run every
    requested scheme (sharing trace generation and the Base replay like
    [Experiment.run_all]).  Never raises: a trace that fails to parse is
    {!Malformed_trace}, any other failure inside the pipeline
    {!Run_failure}. *)

val exec : spec -> (Dpm_sim.Result.t, error) result
(** [exec s] is {!exec_all} reduced to the first requested scheme's
    result — the common single-scheme call. *)

val observe :
  ?run:(spec -> ((Scheme.t * Dpm_sim.Result.t) list, error) result) ->
  ?meter:float ->
  ?on_sample:(scheme:string -> Dpm_sim.Meter.sample -> unit) ->
  spec ->
  ( (Scheme.t * Dpm_sim.Result.t) list
    * (Scheme.t * Dpm_sim.Timeline.sink) list
    * (Scheme.t * Dpm_sim.Meter.t) list,
    error )
  result
(** The observed run: {!exec_all} (or [run], the daemon's test seam) of
    the spec with one timeline sink per scheme attached and, with
    [meter] (seconds per window), one power meter per sink, whose
    [on_sample] fires live with the scheme's name.  Returns the results,
    the sinks and the finished meters, in scheme order.  Recording is
    observational: the results are {!exec_all}'s. *)

(** {1 Setting names}

    One name table per setup enum, read by the [dpm-spec/1] codec, the
    reports and the CLI. *)

val modes : (string * Dpm_sim.Engine.mode) list
(** [["open"; "closed"]]. *)

val cores : (string * Dpm_sim.Engine.core) list
(** [["fast"; "reference"]]. *)

val version_of_name : string -> Dpm_compiler.Pipeline.version option
(** A transformation version by its {!Dpm_compiler.Pipeline.version_name}
    (["Orig"], ["LF"], ["TL"], ["LF+DL"], ["TL+DL"], ["TLall+DL"]),
    case-insensitive; ["lfdl"] and ["tldl"] also name [LF_DL]/[TL_DL]. *)

(** {1 Serializable specs — schema [dpm-spec/1]}

    Everything but the observational [timeline] sinks round-trips
    through {!Dpm_util.Json}: the workload (benchmark name, trace-file
    path or open-loop descriptor — in-memory [Program]s are rejected),
    the scheme names and the whole setup (simulator configuration,
    faults in the {!Dpm_sim.Fault} CLI syntax, mode, version, stream,
    batch, core).  The simulator configuration's numeric fields are the
    {!Dpm_sim.Config.knobs}, keyed by name with [_] for [-].  Floats
    print with [%.17g], so [of_json] of a written document reproduces
    the run bit-for-bit. *)

val spec_schema_version : string
(** ["dpm-spec/1"]. *)

val to_json : spec -> (Dpm_util.Json.t, error) result
(** Writes [schema], [workload], [schemes] and the whole [setup] object.
    Fails with {!Malformed_spec} on a [Program] workload (in-memory IR
    has no wire form). *)

val of_json : Dpm_util.Json.t -> (spec, error) result
(** Reads a document's [setup] object over {!Experiment.default_setup},
    then its top-level [sim]/[mode]/[version]/[faults]/[stream]/
    [batch]/[core] fields (what documents written before the whole
    setup carry) over that — or over the workload's default setup when
    there is no [setup] — so a top-level field wins.  Missing fields
    keep their base value; a field that is present must have its type
    (a number field takes an integer literal too, [tpm_threshold] takes
    [null]), else the error names its path
    (["setup.cache_blocks: expected an integer"]).  A malformed
    document, an empty scheme list, a simulator configuration that
    breaks a {!Dpm_sim.Config} invariant, or a setup with [batch < 1],
    [cache_blocks < 0] or a negative or non-finite [noise] is
    {!Malformed_spec}; a bad fault spec is {!Invalid_faults}.  Never
    raises. *)

val to_file : spec -> string -> (unit, error) result
(** {!to_json} pretty-printed to a file (the sweep harness's replayable
    winning-point artifact). *)

val of_file : string -> (spec, error) result
(** Parse a [dpm-spec/1] file ([dpmsim simulate --spec]). *)
