(** Ideal (oracle) schemes: ITPM and IDRPM.

    The paper's ideal versions assume "an oracle predictor for detecting
    idle periods", acting optimally with perfectly timed transitions — so
    they never perturb the timeline.  Both are computed in closed form
    from a Base replay's busy intervals.  A disk that a whole-disk
    failure froze in that replay is priced only up to its kill
    ({!Result.horizon}), and its analytic timeline lane ends there with
    a [Killed] mark.

    ITPM serves every request at full speed and gives every idle gap the
    energy-optimal spin-down decision ({!Dpm_disk.Power.best_tpm_plan}).

    IDRPM additionally chooses the {e serving} speed: each disk's request
    stream is split into bursts (separated by ≥ 0.5 s of idleness); a
    burst is served at the lowest RPM level that still fits every request
    inside its successor's arrival slack (no queueing, hence no
    performance penalty — "the disk speed to be used is determined
    optimally [...] also eliminates the potential performance
    penalties"), and each gap holds the level minimizing transition plus
    residency energy given the levels of its neighbouring bursts
    ({!Dpm_disk.Power.best_gap_plan}). *)

type phase =
  | Burst of { span : float * float; level : int; service : float }
      (** A request cluster: its base-time extent, the serving level the
          oracle picked, and the total service time at that level. *)
  | Gap of {
      span : float * float;
      from_level : int;  (** The level the preceding burst was served at. *)
      to_level : int;  (** The level the next burst needs on entry. *)
      plan : Dpm_disk.Power.gap_plan;
    }

val phases : ?config:Config.t -> Result.t -> disk:int -> phase list
(** The oracle's per-disk DRPM schedule (exposed for tests and the
    Table 3 comparison). *)

val itpm : ?config:Config.t -> ?timeline:Timeline.sink -> Result.t -> Result.t
(** [itpm base] derives the Ideal TPM outcome from a Base result.

    With [timeline], the closed-form schedule is also emitted as a
    synthetic event log (marked {!Timeline.set_analytic}): every busy
    interval as a full-speed service, every gap as either a ready
    residency or a spin-down/standby/spin-up triple, plus a
    [Gap_decision] mark per gap; {!Timeline.reintegrate} over it matches
    the returned energy. *)

val idrpm :
  ?config:Config.t -> ?timeline:Timeline.sink -> Result.t -> Result.t
(** [idrpm base] derives the Ideal DRPM outcome from a Base result; its
    [gap_choices] hold the oracle's per-gap RPM levels (only gaps the
    oracle exploits, i.e. level below full speed).

    With [timeline], emits the analytic schedule as events: each burst
    as one service interval at its level (the oracle lets a burst's
    service spill into its tail slack, so analytic logs are checked for
    coverage rather than strict contiguity), each gap as its modulation
    spans around the held level, plus per-gap [Gap_decision] marks. *)

val gap_plans :
  ?config:Config.t ->
  Result.t ->
  disk:int ->
  ((float * float) * Dpm_disk.Power.gap_plan) list
(** The oracle's decisions for the disk's idle gaps (all of them,
    including those left at full speed). *)
