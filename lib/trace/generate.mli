(** Trace generator: executes a program's loop structure against a layout
    plan and a buffer cache, producing the I/O event stream the simulator
    replays (paper §4.1, "we implemented a trace generator").

    A fold over a walk's log ({!Walk.log}): statements execute in
    program order; every array reference touches its stripe unit in the
    LRU buffer cache, and only misses become disk requests.  Compute
    cycles accumulate between misses according to the cost model and are
    emitted as the next event's think time — this is the role the
    paper's measured `gethrtime` cycle estimates play.  Power-management
    calls present in the (compiler-transformed) code are passed through
    as directives at their execution points.  A top-level statement binds
    no iterator, so its requests record the previous loop's. *)

type config = {
  cost : Dpm_ir.Cost.model;
  cache_blocks : int;
      (** LRU capacity in stripe units; 0 disables caching. *)
}

val default_config : config
(** Default cost model and a 1,024-block (64 MB at default striping)
    cache.  This cache size is the one default of the front half: the
    compiler's access analysis and timing profile use it too when not
    given [~cache_blocks]. *)

val of_log : Walk.log -> Trace.t
(** The trace of a logged walk, under the log's cost model and plan:
    its events are encoded straight into the trace's column store
    ({!Trace.build}).  A compiled program's trace is [of_log] of the
    {!Walk.splice}d source log, equal to {!run} of the compiled
    program.  Wall time is recorded under the [trace.gen] span and the
    event count under the [trace.events] counter of
    {!Dpm_util.Telemetry.global} (no-ops unless enabled). *)

val run : ?config:config -> Dpm_ir.Program.t -> Dpm_layout.Plan.t -> Trace.t
(** Generates the trace for one run: {!of_log} of a fresh
    {!Walk.log}.  Raises [Not_found] if the program references arrays
    missing from the plan. *)
