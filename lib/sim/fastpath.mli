(** Specialized zero-allocation replay core.

    The semantics are defined by the eager FCFS reference body
    ({!Sched.fcfs_step}); this module re-implements it over
    structure-of-arrays chunks ({!Dpm_trace.Trace.Stream.next_soa}) in
    one inner loop whose policy-specific sites are branches on values
    read once per replay, with the dominant-case service arithmetic
    inlined.  Setup, directive application and result assembly are
    {!Sched}'s.  Results — energies, execution times, fault counters,
    gap choices, timelines, telemetry histograms — are byte-identical
    to the reference for every policy shape, pinned by the differential
    suite (test/test_fastpath.ml).  Reach it through
    [Engine.run_stream ?core] rather than calling it directly. *)

val supported : config:Config.t -> bool
(** Whether this core can replay under [config]: exactly when
    [config.sched = Fcfs], for every policy and fleet.  The deferred
    queue disciplines fall back to the reference body in {!Sched}. *)

val replay :
  config:Config.t ->
  mode:[ `Open | `Closed ] ->
  fault:Fault.state option ->
  timeline:Timeline.sink option ->
  obs:Observe.t option ->
  Policy.t ->
  Dpm_trace.Trace.Stream.t ->
  Result.t
(** Drain the stream and return the outcome (the stream is consumed).
    Raises [Invalid_argument] if {!supported} is false. *)
