(** One benchmark × scheme × configuration run — the pipeline of the
    paper's Figure 1: compile (for CM schemes), generate the trace,
    replay it under the scheme's policy, and report energy and execution
    time.  {!run_all} and {!replay_all} share one per-scheme body (one
    place maps a scheme to its policy) and differ only in where the
    streams come from: {!generated} builds a program's trace once, and
    {!source} is the one stream-or-load choice for trace files.
    Drivers handling user input go through {!Run}, whose [spec] carries a
    {!setup}. *)

type setup = {
  sim : Dpm_sim.Config.t;
  mode : Dpm_sim.Engine.mode;  (** Replay model; [`Open] is the paper's. *)
  cache_blocks : int;  (** Buffer-cache capacity in stripe units. *)
  noise : float;  (** Compiler estimation error (CM schemes). *)
  seed : int;  (** Determinism seed for the estimation error. *)
  version : Dpm_compiler.Pipeline.version;  (** Code transformation. *)
  faults : Dpm_sim.Fault.spec;
      (** Fault injection for every replay of the experiment
          ({!Dpm_sim.Fault.none} disables it; oracle schemes inherit the
          faulted Base replay's counters). *)
  stream : bool;
      (** How a trace file is read ({!source}): chunk by chunk, once
          per replay (O(batch) trace memory), or loaded once and shared
          by every replay.  A generated trace is always built once
          ({!generated}), so the setting applies to trace files only.
          Results are byte-identical either way. *)
  batch : int;  (** Stream chunk size in events. *)
  core : Dpm_sim.Engine.core;
      (** Replay core for every replayed scheme ([`Fast] by default;
          see {!Dpm_sim.Engine.core}).  Results are byte-identical
          either way — [`Reference] is the differential oracle and
          escape hatch. *)
}

val make_setup :
  ?sim:Dpm_sim.Config.t ->
  ?mode:Dpm_sim.Engine.mode ->
  ?cache_blocks:int ->
  ?noise:float ->
  ?seed:int ->
  ?version:Dpm_compiler.Pipeline.version ->
  ?faults:Dpm_sim.Fault.spec ->
  ?stream:bool ->
  ?batch:int ->
  ?core:Dpm_sim.Engine.core ->
  unit ->
  setup
(** Smart constructor: {!default_setup} with fields overridden.  Prefer
    it over record literals so future fields (like [faults] was) don't
    break downstream construction sites. *)

val default_setup : setup
(** Default simulator config, open-loop replay, the suite's 192-unit
    cache, no estimation error, untransformed code, no faults
    ([make_setup ()]). *)

val source :
  setup ->
  fresh:(batch:int -> Dpm_trace.Trace.Stream.t) ->
  whole:(unit -> Dpm_trace.Trace.t) ->
  unit ->
  Dpm_trace.Trace.Stream.t
(** The one stream-or-load choice for a trace file: [source setup
    ~fresh ~whole] yields a fresh stream per call.  Under
    [setup.stream] every call is a new [fresh] reader
    ({!Dpm_trace.Trace.Stream.of_file}, O(batch) memory); otherwise
    [whole] ({!Dpm_trace.Trace.load}) runs once, on the first call, and
    each call slices the shared trace.  Results are byte-identical
    either way. *)

val generated :
  setup ->
  Dpm_ir.Program.t ->
  Dpm_layout.Plan.t ->
  unit ->
  Dpm_trace.Trace.Stream.t
(** The program's generated trace ([Generate.run] with the setup's
    cache), built once, on the first call; each call hands out a fresh
    {!Dpm_trace.Trace.Stream.of_trace} slice of it, whatever
    [setup.stream] says. *)

val run :
  ?setup:setup ->
  ?timeline:Dpm_sim.Timeline.sink ->
  Scheme.t ->
  Dpm_ir.Program.t ->
  Dpm_layout.Plan.t ->
  Dpm_sim.Result.t
(** Run one scheme.  Ideal schemes are derived from an internal Base
    replay; compiler-managed schemes run the full compilation first.
    [timeline] records the scheme's event log (engine events for replayed
    schemes, an analytic reconstruction for the ideal ones). *)

val run_all :
  ?setup:setup ->
  ?timeline:(Scheme.t -> Dpm_sim.Timeline.sink option) ->
  ?schemes:Scheme.t list ->
  Dpm_ir.Program.t ->
  Dpm_layout.Plan.t ->
  (Scheme.t * Dpm_sim.Result.t) list
(** Run several schemes, sharing the trace generation and Base replay,
    and one compiler analysis ({!Dpm_compiler.Pipeline.analyze}) between
    the compiler-managed schemes, which each only insert their calls.
    [timeline] supplies one sink per scheme (or [None] to skip one); the
    caller owns the sinks, so results and logs are read back
    independently.  Note the shared Base replay runs at most once: its
    sink fills on first force even when Base itself is not in
    [schemes]. *)

val replay_all :
  ?setup:setup ->
  ?timeline:(Scheme.t -> Dpm_sim.Timeline.sink option) ->
  ?schemes:Scheme.t list ->
  (unit -> Dpm_trace.Trace.Stream.t) ->
  (Scheme.t * Dpm_sim.Result.t) list
(** Replay externally-produced trace streams (a saved trace file, a
    pre-generated trace) under each scheme — no compilation or
    generation of its own.  [source] must yield a fresh stream per call;
    every replay consumes one, and Base runs at most once (shared by the
    oracle schemes) even when not in [schemes].  CM schemes replay the
    directives already embedded in the trace, so on a directive-free
    trace they degrade to reactive behavior. *)

val misprediction_pct :
  ?setup:setup -> Dpm_ir.Program.t -> Dpm_layout.Plan.t -> float
(** Table 3 metric: percentage of exploitable idle periods for which
    CMDRPM's chosen RPM level differs from IDRPM's oracle choice (gaps the
    oracle exploits but the compiler misses, and compiler actions on gaps
    the oracle would leave alone, both count as mispredictions). *)

val workload :
  Dpm_workloads.Suite.spec -> Dpm_ir.Program.t * Dpm_layout.Plan.t
(** Calibrated program and default plan for a suite benchmark. *)
