(** Compiler timing estimates.

    The paper obtains cycle counts per loop iteration "from the actual
    measurement of the program execution by using a high-quality timer
    called gethrtime" — i.e. a profiling run — and uses them to interpret
    DAP iterations as wall-clock time.  This module reproduces that:
    {!profile} performs an exact instrumented walk (cost model for compute,
    full-speed service time for every buffer-cache miss) giving the
    per-outer-iteration durations of every top-level item, and {!perturb}
    injects the bounded, deterministic estimation error that separates a
    calibration run from the production run (per-item bias plus
    per-iteration jitter).  The perturbed estimate is what the insertion
    pass plans with; Table 3's mispredicted speeds are the consequence. *)

type t = {
  durations : float array array;
      (** [durations.(item).(ordinal)]: estimated seconds spent in that
          outer iteration (single slot for non-loop items). *)
  starts : float array array;
      (** Prefix sums: estimated start time of each outer iteration. *)
  total : float;  (** Estimated whole-run time. *)
}

val of_log : specs:Dpm_disk.Specs.t -> Dpm_trace.Walk.log -> t
(** Exact instrumented walk (the calibration run): a fold over a walk's
    log, under the log's cost model, every miss served at full
    speed. *)

val profile :
  ?cache_blocks:int ->
  specs:Dpm_disk.Specs.t ->
  Dpm_ir.Program.t ->
  Dpm_layout.Plan.t ->
  t
(** {!of_log} of a fresh walk under the default cost model.
    [cache_blocks] defaults to the trace generator's
    ({!Dpm_trace.Generate.default_config}), as for
    {!Access.of_program_cached}. *)

val perturb : noise:float -> seed:int -> t -> t
(** Multiplies every item's durations by a deterministic factor in
    [1 ± noise] (systematic per-item bias) and every iteration by a factor
    in [1 ± noise/4] (jitter), then rebuilds the prefix sums.
    [noise = 0.] returns an identical estimate. *)

val iteration_start : t -> item:int -> ordinal:int -> float
val iteration_end : t -> item:int -> ordinal:int -> float

val locate : t -> float -> int * int
(** [(item, ordinal)] whose span contains the given time, clamped to the
    first/last iteration for out-of-range times. *)
