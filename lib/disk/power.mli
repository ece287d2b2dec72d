(** Power and energy model, including the per-gap optimization that the
    ideal and compiler-managed schemes share.

    Per-level power follows the DRPM spindle model: the power above the
    standby floor scales as [(rpm / rpm_max) ^ spindle_exponent]; the
    active increment (arm and channel electronics) scales linearly with
    speed. *)

val standby : Specs.t -> float

val idle : Specs.t -> level:int -> float
(** Idle power at an RPM level; equals [p_idle] at the top level. *)

val active : Specs.t -> level:int -> float
(** Power while servicing at an RPM level; equals [p_active] at the top
    level. *)

val spin_up_power : Specs.t -> float
(** Mean power drawn while the spindle accelerates:
    [e_spin_up / t_spin_up]. *)

val spin_down_power : Specs.t -> float
(** Mean power drawn while the spindle brakes:
    [e_spin_down / t_spin_down]. *)

val aborted_spin_up_energy : Specs.t -> fraction:float -> float
(** Energy burned by a spin-up attempt that aborts after [fraction] of
    the full spin-up time (clamped to [\[0, 1\]]): the motor current was
    spent but the disk falls back to standby — the cost a failed,
    retried spin-up pays under fault injection. *)

val tpm_break_even : Specs.t -> float
(** Minimum idle-period length (seconds) for which spinning down saves
    energy, counting transition energies and times:
    the [T] solving [E_down + E_up + P_standby (T - t_down - t_up)
    = P_idle T].  ≈ 15.2 s + transition round trip for the Ultrastar. *)

(** Outcome of optimizing one idle gap. *)
type gap_plan = {
  level : int;  (** Level to drop to (DRPM) — [max_level] means stay. *)
  spin_down : bool;  (** TPM alternative: go to standby. *)
  energy : float;  (** Energy spent over the gap under the plan, J. *)
  down_time : float;  (** Transition time at the start of the gap, s. *)
  up_time : float;  (** Pre-activation lead time before the gap ends, s. *)
}

val baseline_gap_energy : Specs.t -> float -> float
(** Energy of sitting idle at full speed for the gap. *)

val best_gap_plan :
  Specs.t -> from_level:int -> to_level:int -> float -> gap_plan
(** [best_gap_plan specs ~from_level ~to_level gap] chooses the level to
    hold during an idle gap that starts with the disk at [from_level] and
    must end with it at [to_level] (the speed the next phase is served
    at): minimizes transition plus residency energy subject to both
    modulations fitting inside the gap.  When no intermediate level fits,
    the plan holds the higher of the two endpoint levels and charges the
    direct transition.  One call builds the model's per-level quantities
    ({!gap_model}, O(levels)) and runs the selection once, so a caller
    deciding one gap at a time pays for one gap.  Raises
    [Invalid_argument] for a level outside the model's ladder. *)

(** {2 The gap selection, per disk model}

    {!best_gap_plan} is a selection over a few per-level quantities of
    the disk model.  A caller pricing many gaps on one model (the IDRPM
    oracle's dynamic program) builds those quantities once with
    {!gap_model} and runs the same selection through {!gap_plan} or
    {!gap_energy}. *)

type gap_model
(** Per level: the RPM and the idle power ([**] evaluated once). *)

val gap_model : Specs.t -> gap_model

val gap_plan :
  gap_model -> from_level:int -> to_level:int -> float -> gap_plan
(** [gap_plan (gap_model specs)] is [best_gap_plan specs], bit for bit:
    the first level whose two modulations fit inside [max 0 gap] with
    strictly least energy
    [(E(from, l) + E(l, to)) + P_idle(l) * ((gap - t(from, l)) - t(l, to))],
    or, when none fits, the higher endpoint held for the whole gap at
    [P_idle * gap + E(from, to)]. *)

val gap_energy :
  gap_model -> from_level:int -> to_level:int -> float -> float
(** [(gap_plan m ~from_level ~to_level gap).energy], without allocating. *)

val best_drpm_plan : Specs.t -> float -> gap_plan
(** [best_drpm_plan specs gap] is {!best_gap_plan} anchored at full speed
    on both ends — the classic spin-down-shaped decision. *)

val best_service_level :
  Specs.t -> budget:float -> bytes:int -> int
(** Lowest RPM level whose request service time stays within the given
    per-request time budget (full speed when none does): how both the
    oracle and the compiler pick the speed an {e active} phase is served
    at without delaying the application. *)

val best_tpm_plan : Specs.t -> float -> gap_plan
(** Same decision for a TPM disk: spin down iff the gap exceeds the
    break-even threshold (with the spin-up completing inside the gap). *)
