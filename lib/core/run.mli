(** The single non-raising entry point for running experiments.

    The layers underneath grew organically and raise on misuse
    ([Workloads.Suite.find], [Fault.plan], the replay engine itself):
    fine for library code holding values it constructed, wrong for
    drivers handling user input.  [Run] closes the gap: build a {!spec}
    from labelled optional arguments, {!exec} it, and get either results
    or a typed {!error} with a printable message — no exception escapes.  [bin/dpmsim] and [bin/tune] go through this module.

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

val pp_error : Format.formatter -> error -> unit
(** Prints {!error_message}. *)

val error_to_json : error -> Dpm_util.Json.t
(** Machine-readable form: [{"error": <kind>, ...fields,
    "message": <error_message>}].  Used verbatim as the service's error
    frames. *)

val error_of_json : Dpm_util.Json.t -> (error, string) result
(** Inverse of {!error_to_json} (exact round-trip). *)

type spec
(** A fully described run: schemes × workload × setup. *)

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
(** [spec workload] runs all seven schemes under a default setup.
    [scheme_names] (checked at {!exec} time) takes precedence over
    [schemes]; [setup] replaces the default setup — for a [Benchmark]
    workload the default inherits the benchmark's calibrated compiler
    noise — and [sim]/[mode]/[version]/[faults]/[stream]/[batch]/[core]
    override the corresponding setup fields either way ([sim] replaces
    the whole simulator configuration: the sweep harness injects its
    per-point configs here without disturbing the calibrated noise).  [stream] selects the fused
    O(batch)-memory pipeline (per-scheme regeneration or incremental
    file parse instead of one shared materialized trace; results are
    byte-identical).  [timeline] supplies a per-scheme
    {!Dpm_sim.Timeline.sink} (as in [Experiment.run_all]); the caller
    keeps the sinks and reads the logs back after {!exec_all}. *)

val of_experiment :
  ?schemes:Scheme.t list -> setup:Experiment.setup -> workload -> spec
(** The [Experiment]→[spec] bridge: package a fully-resolved
    {!Experiment.setup} and a workload as one job value, carrying the
    setup verbatim (no overrides).  This is the canonical direction of
    [Experiment.to_spec] — it lives here because [Run] sits above
    [Experiment] in the library — and makes a CLI invocation, a sweep
    cell and a daemon job the same value on the wire. *)

val workload_label : workload -> string
(** Stable display name: the benchmark or program name, the trace-file
    path, or ["open-loop(src+...)"] — what reports use as their
    [benchmark] field. *)

val describe : spec -> (string * Experiment.setup, error) result
(** The workload label and the fully-resolved setup this spec will run
    under (defaults filled, overrides folded in, fault spec validated) —
    what a report header or a service log needs without executing
    anything. *)

val with_timeline :
  (Scheme.t -> Dpm_sim.Timeline.sink option) -> spec -> spec
(** Attach per-scheme sinks to an already-built spec — how the CLI wires
    power meters onto a [dpm-spec/1] file it parsed ({!of_file} cannot
    carry sinks: they are live mutable state, not data). *)

val schemes_of : spec -> (Scheme.t list, error) result
(** The schemes this spec will run, in order ([scheme_names] resolved —
    the one place {!Unknown_scheme} can surface without executing). *)

val with_schemes : Scheme.t list -> spec -> spec
(** Replace the scheme list (clearing any pending [scheme_names]) — how
    the report path forces [Base] into the set to anchor normalized
    columns. *)

val sim_config : spec -> Dpm_sim.Config.t
(** The simulator configuration this spec will run under ([sim]
    override, else the [setup]'s config, else the default) — what a
    meter needs to resolve per-disk power models before the run. *)

val exec_all : spec -> ((Scheme.t * Dpm_sim.Result.t) list, error) result
(** Resolve names, validate the fault spec, build the workload and run
    every requested scheme (sharing trace generation and the Base replay
    like [Experiment.run_all]).  Never raises: failures inside the
    pipeline come back as [Error (Run_failure _)]. *)

val exec : spec -> (Dpm_sim.Result.t, error) result
(** [exec s] is {!exec_all} reduced to the first requested scheme's
    result — the common single-scheme call. *)

(** {1 Serializable specs — schema [dpm-spec/1]}

    Everything but the observational [timeline] sinks round-trips
    through {!Dpm_util.Json}: workload (benchmark name or trace-file
    path — in-memory [Program]s are rejected), scheme names, the full
    setup, simulator-config overrides, faults (the {!Dpm_sim.Fault}
    CLI syntax), mode/version/stream/batch/core.  Floats print with
    [%.17g], so [of_json] of a written document reproduces the run
    bit-for-bit; optional fields missing from the document fall back to
    their defaults. *)

val spec_schema_version : string
(** ["dpm-spec/1"]. *)

val to_json : spec -> (Dpm_util.Json.t, error) result
(** Fails with {!Malformed_spec} on a [Program] workload (in-memory IR
    has no wire form).  [timeline] is observational and never
    serialized. *)

val of_json : Dpm_util.Json.t -> (spec, error) result

val to_file : spec -> string -> (unit, error) result
(** {!to_json} pretty-printed to a file (the sweep harness's replayable
    winning-point artifact). *)

val of_file : string -> (spec, error) result
(** Parse a [dpm-spec/1] file ([dpmsim simulate --spec]). *)
