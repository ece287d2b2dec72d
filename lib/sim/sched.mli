(** Per-disk bounded request queues with pluggable service order.

    This module owns the reference replay bodies that
    {!Engine.run_stream} runs under [core:`Reference], and that
    {!Fastpath} re-implements for the default fast core, byte for byte
    in results.  The discipline comes from {!Config.t.sched}:

    - [Fcfs] (default) — requests issue eagerly in trace order, the
      exact legacy engine loop.  Homogeneous configurations replay
      byte-identically to the pre-fleet engine.
    - [Sstf] — shortest seek time first over the queued requests that
      have arrived by dispatch time.
    - [Scan] — the elevator: serve positions monotonically in the
      current direction, reversing only when that side empties.
    - [Clook] — circular LOOK: serve upward, wrap to the lowest queued
      position when nothing remains above the head.
    - [Sstf_remap] — SSTF, but a block the fault plan has remapped is
      priced at its post-remap position (the spare region one past the
      data blocks), modelling the real seek to the spare pool.

    Queues are bounded by {!Config.t.queue_depth}; a full queue stalls
    the traced application until the next dispatch frees a slot, the
    same back-pressure the FCFS completion ring applies.  Every deferred
    dispatch emits a {!Timeline.Dispatch} mark, so {!Timeline.check} can
    independently replay the discipline's choices, and feeds the
    [sim.sched.wait_s]/[sim.sched.seek_blocks] histograms via
    {!Observe.observe_dispatch}; the [sim.queue_depth] an arrival sees
    counts the requests queued ahead of it plus the one in service. *)

type t = Config.sched = Fcfs | Sstf | Scan | Clook | Sstf_remap

val all : t list
(** Every discipline, in {!Config.sched_names} order. *)

val name : t -> string
val of_name_opt : string -> t option

(** {1 Replay scaffold}

    The per-disk setup, directive application and result assembly that
    every replay body shares: the reference bodies here, the
    structure-of-arrays core ({!Fastpath}) and the multiprogrammed merge
    ({!Engine.run_many_stream}).  Engine-internal. *)

type state = {
  config : Config.t;
  mode : [ `Open | `Closed ];
  fault : Fault.state option;
  timeline : Timeline.sink option;
  obs : Observe.t option;
  policy : Policy.t;
  models : Dpm_disk.Specs.t array;  (** Per-disk model ({!Config.model}). *)
  tops : int array;  (** Per-disk top RPM level. *)
  disks : Disk_state.t array;
  backlog : float array;
      (** Completion time of the last request issued to each disk. *)
  depth : int;  (** [max 1 config.queue_depth]. *)
  recent : float array array;
      (** Per disk, a ring of the last [depth] completions: the traced
          application stalls rather than queue more than that. *)
  recent_pos : int array;  (** Each ring's oldest slot. *)
  makespan : float array;
      (** One cell: the latest completion so far (a float array, so
          stores stay unboxed). *)
  mutable gap_choices : (int * float * int) list;  (** Newest first. *)
}

val create :
  config:Config.t ->
  mode:[ `Open | `Closed ] ->
  fault:Fault.state option ->
  timeline:Timeline.sink option ->
  obs:Observe.t option ->
  Policy.t ->
  ndisks:int ->
  state

val apply_directive : state -> int -> int -> int -> float -> float
(** [apply_directive s tag disk level clock] applies one directive given
    in the structure-of-arrays encoding ({!Dpm_trace.Trace.Stream.Chunk}
    tag, disk, and level for [Set_rpm]) at the application clock, and
    returns the clock after the power-management call overhead. *)

val fcfs_step :
  state -> float ref -> Dpm_trace.Trace.Stream.Chunk.t -> int -> unit
(** [fcfs_step s clock chunk i] is the eager FCFS reference body: it
    replays row [i] of [chunk] and advances the application clock
    [clock] past it.  Directives apply only when the policy accepts
    them. *)

val finish : state -> program:string -> clock:float -> Result.t
(** End of replay at [max clock makespan]: the last failures are swept,
    the policy catches up and every disk closes, the timeline gets its
    label, fleet and [Sim_end], and the result is assembled. *)

val replay :
  config:Config.t ->
  mode:[ `Open | `Closed ] ->
  fault:Fault.state option ->
  timeline:Timeline.sink option ->
  obs:Observe.t option ->
  Policy.t ->
  Dpm_trace.Trace.Stream.t ->
  Result.t
(** The reference replay under [config.sched], heterogeneous-fleet
    aware (per-disk models via {!Config.model}): the differential
    reference behind [core:`Reference].  Engine-internal: callers
    should go through {!Engine.run_stream}, which adds fault setup,
    observation flushing and telemetry around this. *)
