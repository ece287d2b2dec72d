(** Power-management call insertion (paper §3).

    For every estimated idle window longer than the break-even point, the
    pass inserts an explicit call at the window's opening iteration
    ([spin_down] for TPM disks, [set_RPM] to the chosen level for DRPM
    disks) and a pre-activation call ([spin_up] / [set_RPM] to full speed)
    placed early enough that the disk is back at full speed when the next
    access arrives — the paper's Eq. 1,
    [d = ceil(Tsu / (s + Tm))] iterations before the reactivation point.
    Loops are split ("strip-mined") at the insertion iterations so the
    calls appear between loop segments rather than by unrolling.

    For DRPM the pass additionally (unless [~serve_slow:false], for
    strictly latency-sensitive replay models) selects the {e serving}
    speed of every active window — the lowest level whose per-request service time fits
    the window's estimated request budget ([request_bytes] wide, 90%
    margin) — and pre-activates to that level directly ("starts to bring
    the disk to the desired RPM level before it is actually needed"),
    so transitions never appear on the request path. *)

type scheme = Tpm | Drpm

type decision = {
  disk : int;
  window : Dap.window;  (** The estimated idle window being exploited. *)
  plan : Dpm_disk.Power.gap_plan;  (** Level / spin-down choice. *)
  from_level : int;  (** Level the disk holds when the gap opens. *)
  to_level : int;  (** Level the next phase is served at. *)
  down_at : int * int;  (** (item, ordinal) of the low-power call. *)
  up_at : (int * int) option;
      (** (item, ordinal) of the pre-activation; [None] for a window that
          runs to the end of the program. *)
}

val preactivation_distance : t_su:float -> s:float -> t_m:float -> int
(** Paper Eq. 1: iterations of lead time given the spin-up time, the
    shortest-path time through one loop iteration, and the call
    overhead. *)

val insert :
  specs:Dpm_disk.Specs.t ->
  ?pm_overhead:float ->
  ?pre_lead:float ->
  ?request_bytes:int ->
  ?serve_slow:bool ->
  scheme ->
  Dpm_ir.Program.t ->
  Dap.t ->
  Estimate.t ->
  Dpm_ir.Program.t * decision list
(** Plan and apply: returns the instrumented program (loops split, calls
    inserted) plus the decisions taken. *)
