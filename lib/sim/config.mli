(** Simulator configuration.

    The record is {e private}: every field is meaningful to read (and
    pattern-match), but construction must go through {!make}, {!update}
    or the [with_*] updaters over {!default}.  Bare record literals and
    [{ c with ... }] functional update are deprecated and no longer
    type-check outside this module — the builders are the single place
    where configuration invariants (queue depth and window >= 1, DRPM
    tolerances ordered, non-negative overheads, no NaN in any float
    knob) are enforced, so a
    CLI flag, a sweep axis value, a wire [dpm-spec/1] job and a test
    literal all pass the same checks.  Builders raise [Invalid_argument]
    on violation. *)

(** Per-disk request-queue service order (see {!Dpm_sim.Sched}): FCFS is
    the legacy implicit-FIFO order; SSTF/SCAN/C-LOOK reorder by block
    position; [Sstf_remap] is SSTF pricing remapped bad sectors at their
    post-remap position (spare region beyond the data blocks). *)
type sched = Fcfs | Sstf | Scan | Clook | Sstf_remap

val sched_names : (string * sched) list
(** Canonical names in a stable order: ["fcfs"], ["sstf"], ["scan"],
    ["c-look"], ["sstf-remap"] — shared by the CLI, the run-spec JSON
    and the timeline export. *)

val sched_name : sched -> string
val sched_of_name_opt : string -> sched option
(** Case-insensitive, whitespace-trimmed lookup; ["clook"] is
    ["c-look"]. *)

type t = private {
  specs : Dpm_disk.Specs.t;
  fleet : Dpm_disk.Specs.t array;
      (** Heterogeneous disk models, assigned round-robin by disk id
          (disk [d] is [fleet.(d mod length)]).  [[||]] (default) means
          every disk is [specs] — the legacy homogeneous fleet. *)
  sched : sched;
      (** Per-disk queue service order (default [Fcfs], the legacy
          order; anything else routes the replay through
          {!Dpm_sim.Sched}). *)
  tpm_threshold : float option;
      (** Reactive TPM idleness threshold in seconds; [None] uses the
          break-even time computed from the specs (the standard
          "competitive" setting). *)
  drpm_lower : float;
      (** DRPM lower tolerance: relative response-time degradation below
          which the controller steps the RPM one level down. *)
  drpm_upper : float;
      (** DRPM upper tolerance: degradation above which the controller
          restores full speed. *)
  drpm_window : int;  (** Requests per observation window (Table 1: 30). *)
  drpm_idle_interval : float;
      (** Reactive DRPM idle control: a disk that has seen no request for
          this long steps one RPM level down, and one more per further
          interval — the reactive controller's only way to exploit
          idleness (it pays for it by serving the next burst at the level
          it drifted to). *)
  drpm_floor_depth : int;
      (** How many RPM levels below full speed idle control (reactive
          DRPM and the online {!Dpm_sim.Policy.adaptive} controller) may
          drift on idleness alone — deeper levels cost too much to
          reverse when the workload returns (default 4). *)
  queue_depth : int;
      (** Open-loop replay: maximum requests outstanding per disk before
          the traced application stalls (bounded I/O queue, default 32).
          Transient service hiccups are absorbed; sustained slow service
          becomes an execution-time penalty. *)
  pm_call_overhead : float;
      (** Cost of executing one inserted power-management call, seconds
          (the paper's [Tm]); charged to compute time in CM schemes. *)
  pre_activation_lead : float;
      (** Extra seconds of guard band added ahead of every
          compiler-inserted pre-activation (paper Eq. 1 fires
          [guard = max pm_call_overhead (gap / 4) + lead] before the
          estimated window end).  0 reproduces the paper's placement;
          the sweep harness uses this axis to trade spin-up misses
          against shortened low-power residency. *)
}

val default : t
(** Ultrastar 36Z15 specs, break-even TPM threshold, 5%/15% DRPM
    tolerances, 30-request windows, 1 s idle interval with a 4-level
    floor, 2 µs call overhead, no extra pre-activation lead. *)

val make :
  ?specs:Dpm_disk.Specs.t ->
  ?fleet:Dpm_disk.Specs.t array ->
  ?sched:sched ->
  ?tpm_threshold:float ->
  ?drpm_lower:float ->
  ?drpm_upper:float ->
  ?drpm_window:int ->
  ?drpm_idle_interval:float ->
  ?drpm_floor_depth:int ->
  ?queue_depth:int ->
  ?pm_call_overhead:float ->
  ?pre_activation_lead:float ->
  unit ->
  t
(** {!default} with fields overridden ([tpm_threshold] stays [None] —
    break-even — unless given).  Raises [Invalid_argument] when the
    resulting configuration violates an invariant. *)

(** Functional updaters, value first so they compose with [|>]:
    [Config.default |> Config.with_queue_depth 4]. *)

val with_specs : Dpm_disk.Specs.t -> t -> t
val with_fleet : Dpm_disk.Specs.t array -> t -> t
val with_sched : sched -> t -> t
val with_drpm_idle_interval : float -> t -> t
val with_queue_depth : int -> t -> t

val model : t -> disk:int -> Dpm_disk.Specs.t
(** The model serving [disk]: [fleet.(disk mod length)], or [specs] when
    the fleet is empty. *)

val homogeneous : t -> bool
(** [true] iff every disk is served by [specs] (empty fleet, or every
    fleet entry structurally equal to it) — the configurations whose
    replays must stay byte-identical with the pre-fleet engine. *)

(** {1 Sweepable knobs}

    The ten fields a sweep axis or a [dpm-spec/1] [sim] field may set,
    each declared once with its name and its value as a float.  Both
    readers are generic over this table. *)

type knob

val knobs : knob list
(** In order: [tpm-threshold], [drpm-lower], [drpm-upper],
    [drpm-window], [drpm-idle-interval], [drpm-floor-depth],
    [queue-depth], [pm-call-overhead], [pre-activation-lead], then the
    categorical [sched]. *)

val knob_name : knob -> string
(** Kebab-case: the sweep axis name, and with [_] for [-] the
    [dpm-spec/1] key. *)

val integral : knob -> bool
(** The field is an integer (or, for [sched], an index). *)

val value_names : knob -> string list
(** A categorical knob's values, value [i] named by the [i]-th entry
    ({!sched_names} for [sched]); [[]] for a numeric knob. *)

val value_of_name : knob -> string -> float option
(** A categorical value by name, spelled as {!sched_of_name_opt}
    accepts. *)

val get : knob -> t -> float option
(** The knob's value; [None] only for an unset [tpm-threshold]
    (break-even). *)

val update : (knob * float) list -> t -> t
(** Set every knob, in order, then check the invariants once: a valid
    combination is valid in any order.  An integral knob truncates its
    value.  Raises [Invalid_argument] like {!make}. *)
