(** The seven disk power-management schemes of the paper's §4.2, plus
    the repo's online auto-tuning extension. *)

type t =
  | Base  (** No power management. *)
  | Tpm  (** Reactive threshold spin-down. *)
  | Itpm  (** Oracle TPM (not implementable; upper bound). *)
  | Drpm  (** Reactive dynamic RPM (Gurumurthi et al.). *)
  | Idrpm  (** Oracle DRPM. *)
  | Cmtpm  (** Compiler-managed TPM — this paper. *)
  | Cmdrpm  (** Compiler-managed DRPM — this paper. *)
  | Adaptive
      (** Online auto-tuning controller ({!Dpm_sim.Policy.adaptive}):
          EWMA gap prediction with hill-climbed per-disk thresholds.
          An extension — not part of the paper's seven, so excluded
          from {!all} (and every figure/golden built on it); request it
          by name or via {!extended}. *)

val all : t list
(** The paper's seven schemes, in presentation order. *)

val extended : t list
(** {!all} plus the extensions ([Adaptive]). *)

val name : t -> string

val names : string list
(** Canonical names of {!all}, in presentation order. *)

val extended_names : string list
(** Canonical names of {!extended}. *)

val of_name_opt : string -> t option
(** Case-insensitive lookup over {!extended}. *)

val conv : t Cmdliner.Arg.conv
(** Cmdliner converter; an unknown name errors with the valid list. *)

val is_compiler_managed : t -> bool
val is_ideal : t -> bool
