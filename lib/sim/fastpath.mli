(** Specialized zero-allocation replay core.

    The semantics are defined by the reference bodies in {!Sched}: the
    eager FCFS step ({!Sched.fcfs_step}) and the deferred-dispatch body
    of SSTF, SCAN, C-LOOK and SSTF-R.  This module re-implements both
    over structure-of-arrays chunks
    ({!Dpm_trace.Trace.Stream.next_soa}) in two inner loops.  Both
    serve through one function with the dominant-case service
    arithmetic written out, and both branch on the policy's hook sites
    resolved once per replay; the rest of the per-request step is
    written out in each loop on purpose, since one shared step slowed
    FCFS.  Under a deferred discipline each disk's queue is a slice of
    flat unboxed columns allocated once per replay, and each disk's
    next dispatch time is cached, so no request allocates.  Setup, directive application and result assembly are
    {!Sched}'s.  Results — energies, execution times, fault counters,
    gap choices, timelines, telemetry histograms — are byte-identical
    to the reference for every discipline and policy shape, pinned by
    the differential suite (test/test_fastpath.ml).  Reach it through
    [Engine.run_stream ?core] rather than calling it directly. *)

val replay :
  config:Config.t ->
  mode:[ `Open | `Closed ] ->
  fault:Fault.state option ->
  timeline:Timeline.sink option ->
  obs:Observe.t option ->
  Policy.t ->
  Dpm_trace.Trace.Stream.t ->
  Result.t
(** Drain the stream under [config.sched] and return the outcome (the
    stream is consumed). *)
