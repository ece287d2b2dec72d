(** Compilation drivers: the code-transformation versions of §6 and the
    end-to-end proactive compilation of §3.

    Versions (paper §6.2):
    - [Orig]: the untransformed code;
    - [LF] / [TL]: loop fission / tiling {e without} layout optimization
      (the paper's layout-oblivious baselines);
    - [LF_DL]: layout-aware fission — fission plus proportional disk
      allocation of array groups;
    - [TL_DL]: layout-aware tiling — tiling plus layout transposition and
      per-array stripe sizing. *)

type version =
  | Orig
  | LF
  | TL
  | LF_DL
  | TL_DL
  | TL_ALL_DL
      (** Extension (the paper's future work): layout-aware tiling applied
          to every legal nest, not just the most costly one. *)

val all_versions : version list
(** The paper's versions ([TL_ALL_DL] excluded; pass it explicitly). *)

val version_name : version -> string

val transform :
  version ->
  Dpm_ir.Program.t ->
  Dpm_layout.Plan.t ->
  Dpm_ir.Program.t * Dpm_layout.Plan.t
(** Apply one code/layout transformation version. *)

type compiled = {
  program : Dpm_ir.Program.t;  (** With power calls inserted. *)
  decisions : Insertion.decision list;
  dap : Dap.t;
  estimate : Estimate.t;  (** The (perturbed) estimate planning used. *)
  profile : Estimate.t;  (** The exact (unperturbed) timing profile. *)
}

val compile :
  scheme:Insertion.scheme ->
  ?noise:float ->
  ?seed:int ->
  ?cache_blocks:int ->
  ?pm_overhead:float ->
  ?pre_lead:float ->
  ?serve_slow:bool ->
  specs:Dpm_disk.Specs.t ->
  Dpm_ir.Program.t ->
  Dpm_layout.Plan.t ->
  compiled
(** The full proactive pipeline of paper Figure 1: footprint analysis →
    profiling estimate (perturbed by [noise], default 0) → DAP →
    power-call insertion.  The analysis and the estimate walk the same
    cache: [cache_blocks], by default the trace generator's
    ({!Dpm_trace.Generate.default_config}). *)
