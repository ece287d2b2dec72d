(** Per-disk simulation event timeline: a low-overhead recorder threaded
    through {!Engine.run}/{!Engine.run_many} (and emitted in closed form
    by {!Oracle.itpm}/{!Oracle.idrpm}), plus an {e independent} energy
    re-integrator and an invariant checker that together act as a test
    oracle for the whole simulator.

    The engine's energy bookkeeping lives inside {!Disk_state} as a
    running accumulation; the timeline records every charged residency
    span, service interval and aborted spin-up as a typed event, and
    {!reintegrate} recomputes per-disk and total energy {e solely} from
    the event log and the {!Dpm_disk.Power} tables — a completely
    separate code path whose result must agree with [Result.energy] to
    within floating-point noise.  {!check} validates that the log is a
    legal execution of the TPM/DRPM power-state automaton: residencies
    are contiguous and non-overlapping, timestamps are monotone, every
    state change is a permitted transition, and the spans of each disk
    partition [0, sim_end].

    A log is frozen once into per-disk lanes, and every analysis folds
    over them.  {!energy_of} is the one pricing (shared with
    {!Dpm_sim.Meter}), and {!close} the one way a run ends its log.

    Recording is strictly observational: a replay with a sink installed
    produces a byte-identical {!Result.t} to one without. *)

(** {1 Event grammar} *)

(** A power-state residency.  Mirrors {!Disk_state.phase}, minus the
    in-flight finish times (the span's own [t1] carries them). *)
type state =
  | Ready of int  (** Spinning at an RPM level (idle power). *)
  | Changing of { from_level : int; to_level : int }
      (** Modulating between levels (idle power of the faster level). *)
  | Spinning_down  (** TPM transition to standby. *)
  | Standby
  | Spinning_up

(** Point events riding on the timeline: fault signatures, applied
    power-management directives and per-gap oracle decisions. *)
type mark =
  | Retry of int  (** Transient read error; payload = attempt index. *)
  | Remap of int  (** Bad-sector remap; payload = stripe unit. *)
  | Redirect of int
      (** Request shed from a failed disk; payload = original disk. *)
  | Killed  (** Whole-disk failure: the state machine froze here. *)
  | Directive_spin_down  (** An accepted [spin_down] trace directive. *)
  | Directive_spin_up  (** An accepted [spin_up] trace directive. *)
  | Directive_set_rpm of int  (** An accepted [set_RPM]; payload = level. *)
  | Gap_decision of { predicted : float; level : int; spin_down : bool }
      (** An oracle per-gap plan: the predicted idle-gap length and the
          level/spin-down choice made for it. *)
  | Dispatch of { disc : Config.sched; pos : int; arrival : float }
      (** One {!Dpm_sim.Sched} dispatch decision: the queue discipline,
          the head position chosen (stripe units, post-remap for
          [Sstf_remap]) and the request's enqueue time.  The mark's [t]
          is the dispatch time, so [t - arrival] is the queue wait and
          {!check} can replay the discipline's pick. *)

type event =
  | Span of { disk : int; state : state; t0 : float; t1 : float }
      (** Constant-power residency over [t0, t1). *)
  | Service of {
      disk : int;
      level : int;
      arrival : float;  (** When the request reached the disk. *)
      t0 : float;  (** Service start ([> arrival] iff it had to wait). *)
      t1 : float;
      bytes : int;  (** 0 when unknown (oracle-reconstructed). *)
    }  (** Active-power busy interval serving one request (attempt). *)
  | Occupy of { disk : int; level : int; t0 : float; t1 : float }
      (** Active-power occupancy that serves no request (remap cost). *)
  | Aborted of { disk : int; t0 : float; t1 : float; fraction : float }
      (** A spin-up attempt that stuck after [fraction] of the full
          spin-up, burning [fraction × e_spin_up] and falling back to
          standby. *)
  | Mark of { disk : int; t : float; mark : mark }
  | Sim_end of float  (** End of the simulated run ([exec_time]). *)

(** {1 Recording} *)

type sink
(** A mutable, append-only event recorder.  One per replay — never share
    across runs (domains fan out replays in parallel). *)

val sink : unit -> sink
val emit : sink -> event -> unit

val on_emit : sink -> (event -> unit) -> unit
(** Attach an online consumer: [f] is called synchronously with every
    event {!emit} records, in emission order, {e after} the event is
    appended to the sink.  The hook {!Dpm_sim.Meter} streams from.  Taps
    must be observational — they see events, they must not perturb the
    replay — and a sink with no taps pays one list match per emit. *)

val set_label : sink -> scheme:string -> program:string -> unit
(** Stamp the log with the scheme/program it records (the engine and the
    oracle do this themselves). *)

val set_analytic : sink -> unit
(** Mark the log as oracle-reconstructed: energies are exact, but the
    analytic model lets a burst's service spill into its tail slack, so
    {!check} verifies coverage instead of strict contiguity. *)

val close :
  ?analytic:bool ->
  sink ->
  scheme:string ->
  program:string ->
  config:Config.t ->
  float ->
  unit
(** End a run's log ({!Dpm_sim.Sched} and both oracles): label it (and
    mark it analytic), name its models, then emit [Sim_end t].  Models
    are named as registry slugs only when not the default: a fleet by
    its slugs, round-robin by disk id; a homogeneous array whose
    [specs] differ from {!Config.default}'s by its one slug.  The
    analyses resolve that label when no explicit fleet is passed. *)

type t
(** A frozen event log, split into lanes: one disk's events in emission
    order for every id up to the highest seen ([Sim_end] is in none). *)

val contents : sink -> t
(** Freeze everything emitted so far (the sink stays usable): one pass
    fixes {!ndisks} and {!sim_end}, a second fills the lanes.  Raises
    [Invalid_argument] on a negative disk id. *)

val events : t -> event list
(** In emission order — chronological per disk. *)

val scheme : t -> string
val program : t -> string
val is_analytic : t -> bool

val fleet : t -> string list
(** The model label ([[]] for logs on the default model). *)

val ndisks : t -> int (** The highest disk id + 1. *)

val sim_end : t -> float
(** From the last [Sim_end] event, falling back to the latest
    timestamp. *)

(** {1 The independent energy re-integrator} *)

type energy = { per_disk : float array; total : float }

val energy_of : Dpm_disk.Specs.t -> event -> float
(** The energy one event carries under the {!Dpm_disk.Power} tables: a
    [Span] its state's power times its width ([Changing] at the idle
    power of its faster level; zero-width spans carry none),
    [Service]/[Occupy] active power times width, [Aborted] its share of
    a spin-up, the rest nothing.  {!reintegrate} and {!Dpm_sim.Meter}
    both price through it, so they can never disagree. *)

val resolve_models :
  ?specs:Dpm_disk.Specs.t ->
  ?fleet:Dpm_disk.Specs.t array ->
  t ->
  int ->
  Dpm_disk.Specs.t
(** Per-disk model resolution, exactly as {!reintegrate}/{!check} do it:
    an explicit [?fleet] wins (round-robin by disk id); otherwise the
    log's own {!fleet} label is resolved through the model registry
    (all-or-nothing — a partially resolvable label falls back whole);
    otherwise every disk is [specs] (default: {!Config.default}). *)

val reintegrate :
  ?specs:Dpm_disk.Specs.t -> ?fleet:Dpm_disk.Specs.t array -> t -> energy
(** Recompute energy from the event log alone: each lane summed in
    emission order, adding every non-zero {!energy_of} (default specs:
    {!Config.default}).  For an engine log this must match
    [Result.energy] per disk and in total (relative error ≤ 1e-9);
    for an oracle log it must match the closed-form energies.
    Heterogeneous fleets resolve per-disk models from [?fleet]
    (round-robin by disk id) or, absent that, the log's own {!fleet}
    label; unresolvable labels fall back to [specs]. *)

(** {1 The invariant checker} *)

val check :
  ?specs:Dpm_disk.Specs.t ->
  ?fleet:Dpm_disk.Specs.t array ->
  t ->
  (unit, string list) result
(** Validates state-machine legality.  For engine logs: per disk, spans
    are exactly contiguous from time 0, never overlap, every adjacent
    pair is a transition the TPM/DRPM automaton permits (chained
    operations may elide a zero-length intermediate residency), service
    levels match the surrounding ready level, a disk reaches [sim_end]
    unless a [Killed] mark froze it, and spin-up always completes at the
    top level.  For analytic (oracle) logs: monotone starts, well-formed
    spans, and full coverage of [0, sim_end] (service is allowed to
    overlap the tail slack the oracle grants it).

    Per-queue legality, both modes: on any one disk [Service] intervals
    never overlap, and [Dispatch] marks must replay under their queue
    discipline — monotone dispatch times, no dispatch before its
    arrival, SSTF picks no farther than any certainly-queued request,
    SCAN moves monotonically between reversals, C-LOOK wraps to the
    lowest queued position — plus a work-conservation bound (a dispatch
    never idles past the earliest queued arrival) on fault-free lanes.
    Per-disk RPM ladders resolve like {!reintegrate} ([?fleet], then
    the log's {!fleet} label, then [specs]).  Returns all violations
    found, each as a human-readable message. *)

(** {1 Derived statistics} *)

type disk_summary = {
  disk : int;
  busy : float;  (** Seconds at active power (service + occupancy). *)
  ready : float;  (** Seconds ready-idle at any level. *)
  ready_low : float;  (** The subset of [ready] below the top level. *)
  changing : float;
  spin_down_time : float;
  standby : float;
  spin_up_time : float;
  aborted_time : float;
  services : int;
  modulations : int;  (** Maximal [Changing] runs. *)
  spin_downs : int;  (** Maximal [Spinning_down] runs. *)
  spin_ups : int;  (** Maximal [Spinning_up] runs. *)
  aborted : int;
  retries : int;
  remaps : int;
  redirects : int;
  killed_at : float option;
  missed_preactivations : int;
      (** Requests that arrived while the disk was down or still rising:
          the spin-up (or lack of one) did not complete in time. *)
  early_preactivations : int;
      (** Spin-ups that completed strictly before the next request
          (or with none following) — energy left on the table. *)
  early_margin : float;  (** Total seconds of early-wake idling. *)
  wait : float;  (** Total seconds requests waited on transitions. *)
}

val disk_summaries : t -> disk_summary array

val pre_activation_totals : t -> int * int
(** Aggregate [(missed, early)] pre-activation counts over all disks. *)

(** {1 Rendering and export} *)

val gantt : ?width:int -> t -> string
(** One fixed-width lane per disk over [0, sim_end]; each column shows
    the dominant occupation of its time bucket ([#] busy, [=] full-speed
    idle, [~] low-RPM idle, [-] modulating, [v] spinning down, [.]
    standby, [^] spinning up, [!] aborted spin-up, [X] dead). *)

val summary :
  ?specs:Dpm_disk.Specs.t -> ?fleet:Dpm_disk.Specs.t array -> t -> string
(** Human-readable report: the per-disk table ({!Dpm_util.Table}), the
    Gantt lanes, the re-integrated energy and the {!check} verdict. *)

val write_jsonl : t -> out_channel -> unit
(** One JSON object per line; a leading [meta] line carries the
    scheme/program labels, so several logs can share one file. *)

val write_csv : t -> out_channel -> unit
(** Flat one-row-per-event CSV with a header row. *)

val read_jsonl : in_channel -> (t list, string) result
(** Parses what {!write_jsonl} wrote (any number of concatenated
    sections).  Never raises on bad input: the first bad line — bad
    JSON, a missing field, a disk id outside
    [0, {!Dpm_trace.Trace.max_disks}), a priced level off the
    ladder of its disk's model (from the label, else the default) — is
    an [Error] naming it. *)
