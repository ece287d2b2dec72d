(** Trace replay engine.

    Two replay modes:

    - [`Open] (default; the paper's model): request arrival times are
      fixed by the traced execution — each event's think time and its
      full-speed service time advance the application clock regardless of
      how power management delays actual service.  Delayed requests queue
      FIFO at their disk; the run's execution time is the completion of
      the last piece of work, so sustained slow service shows up as an
      execution-time penalty only to the extent the backlog survives to
      the end of a burst.  This matches a trace-driven simulator fed with
      recorded arrival times (DiskSim-style, paper §4.1).

    - [`Closed]: the application issues one request at a time: each
      event's think time elapses after the previous event {e completes},
      so every service delay propagates fully into execution time.  This
      stricter model is kept as an ablation (see the benchmark harness)
      — under it, reactive speed control is far less attractive because
      one second of slowdown buys eight disk-seconds of idle energy.

    Directives in the trace are applied on the application clock when the
    policy accepts them (a modulation or spin-down proceeds while the
    application computes), and are skipped otherwise; their think time
    always elapses, so the compute timeline is scheme-independent. *)

type mode = [ `Open | `Closed ]

type core = [ `Fast | `Reference ]
(** Replay core selection.  [`Fast] (the default) runs the specialized
    structure-of-arrays loops ({!Fastpath}) for every policy under
    every queue discipline;
    [`Reference] forces the reference bodies in {!Sched}, which read the
    same chunk rows one accessor call at a time.  The two
    produce byte-identical results — energies, execution times, fault
    counters, gap choices, timelines, telemetry histograms — which the
    differential suite pins; [`Reference] exists as the oracle for
    those tests and as an escape hatch. *)

val run_stream :
  ?config:Config.t ->
  ?mode:mode ->
  ?faults:Fault.spec ->
  ?timeline:Timeline.sink ->
  ?core:core ->
  Policy.t ->
  Dpm_trace.Trace.Stream.t ->
  Result.t
(** Replays a pull-based trace stream chunk by chunk — the engine's
    core entry point; {!run} is the materialized wrapper over it.  The
    per-event body is independent of chunking, so the result is
    byte-identical to replaying the materialized trace whatever the
    stream's batch size.  Peak memory is O(batch) on the trace side
    when the stream is read from a file
    ({!Dpm_trace.Trace.Stream.of_file}); the result still keeps every
    request's busy interval, as two unboxed floats in its disk's
    column ([Result.disk_stats.busy], which the oracles read).  The
    stream's [nblocks] is forced only when [faults] is a non-zero spec
    (the bad regions are drawn over that address space), and its
    [tail_think] only after exhaustion.  The stream is consumed: a
    second replay needs a fresh stream. *)

val run_many_stream :
  ?config:Config.t ->
  ?mode:mode ->
  ?faults:Fault.spec ->
  ?timeline:Timeline.sink ->
  Policy.t ->
  Dpm_trace.Trace.Stream.t list ->
  Result.t
(** Multiprogrammed {!run_stream}: each application pulls chunks from
    its own stream on demand (see {!run_many} for the scheduling
    model).  All streams must agree on the disk count. *)

val run :
  ?config:Config.t ->
  ?mode:mode ->
  ?faults:Fault.spec ->
  ?timeline:Timeline.sink ->
  ?core:core ->
  Policy.t ->
  Dpm_trace.Trace.t ->
  Result.t
(** Replays the whole trace and returns the outcome.  Wall time is
    recorded under the [sim.replay] span and the served request count
    under the [sim.requests] counter of {!Dpm_util.Telemetry.global}
    (no-ops unless enabled) — together they give the
    requests-simulated/sec throughput the harness reports.

    [faults] (default {!Fault.none}) injects deterministic faults at
    service time: transient read errors retry with exponential backoff,
    bad-sector hits pay a remap penalty, spin-ups from standby can stick
    and re-attempt (burning aborted spin-up energy), and whole-disk
    failures redirect load to the surviving disks.  The counters land in
    [Result.faults] and under the [sim.fault.*] telemetry counters; a spec
    for which {!Fault.is_zero} holds takes the exact fault-free code
    path, so results are byte-identical to omitting it.  Raises
    [Invalid_argument] on a spec {!Fault.validate} rejects.

    [timeline] installs a {!Timeline.sink}: every power-state residency,
    service interval, aborted spin-up, applied directive and fault
    signature is recorded as a typed event (plus a final
    [Timeline.Sim_end]), and the sink is labelled with the scheme and
    program.  Recording is strictly observational — with no sink the
    replay takes the exact same code path and produces byte-identical
    results. *)

val run_many :
  ?config:Config.t ->
  ?mode:mode ->
  ?faults:Fault.spec ->
  ?timeline:Timeline.sink ->
  Policy.t ->
  Dpm_trace.Trace.t list ->
  Result.t
(** Extension beyond the paper (which "considers one benchmark program at
    a time"): replay several applications concurrently over one shared
    disk subsystem.  Each application advances on its own clock; at every
    step the one with the earliest next event proceeds.  All traces must
    agree on the disk count.  Compiler-managed traces keep their own
    directives — two co-scheduled CM applications can fight over a disk's
    speed, which is precisely the open problem the paper's
    one-at-a-time evaluation sidesteps. *)
