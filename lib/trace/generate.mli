(** Trace generator: executes a program's loop structure against a layout
    plan and a buffer cache, producing the I/O event stream the simulator
    replays (paper §4.1, "we implemented a trace generator").

    Statements execute in program order; every array reference touches its
    stripe unit in the LRU buffer cache, and only misses become disk
    requests.  Compute cycles accumulate between misses according to the
    cost model and are emitted as the next event's think time — this is
    the role the paper's measured `gethrtime` cycle estimates play.
    Power-management calls present in the (compiler-transformed) code are
    passed through as directives at their execution points. *)

type config = {
  cost : Dpm_ir.Cost.model;
  cache_blocks : int;
      (** LRU capacity in stripe units; 0 disables caching. *)
}

val default_config : config
(** Default cost model and a 1,024-block (64 MB at default striping)
    cache. *)

val run : ?config:config -> Dpm_ir.Program.t -> Dpm_layout.Plan.t -> Trace.t
(** Generates the trace for one run.  Raises [Invalid_argument] if the
    program references arrays missing from the plan.  Wall time is
    recorded under the [trace.gen] span and the event count under the
    [trace.events] counter of {!Dpm_util.Telemetry.global} (no-ops
    unless enabled). *)

val stream :
  ?config:config ->
  ?batch:int ->
  Dpm_ir.Program.t ->
  Dpm_layout.Plan.t ->
  Trace.Stream.t
(** Fused producer: the same loop-nest walk as {!run} (identical LRU
    cache state, cost model and emission order) suspended every [batch]
    events and resumed by the consumer's pull — generation and replay
    interleave in O(batch) peak memory.  The stream's [tail_think]
    becomes available at exhaustion; its [nblocks] re-runs the walk
    with a max-tracking sink when forced (fault-injected replays only).
    The [trace.events] counter is bumped once, when the producer
    finishes. *)

val max_block :
  ?config:config -> Dpm_ir.Program.t -> Dpm_layout.Plan.t -> int
(** Highest IO block number + 1 the run touches, computed without
    retaining events (the fault layer's address space). *)

val request_count :
  ?config:config -> Dpm_ir.Program.t -> Dpm_layout.Plan.t -> int
(** Convenience: number of I/O requests the run produces. *)
