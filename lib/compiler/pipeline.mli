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

type analysis = {
  source : Dpm_ir.Program.t;  (** The program analyzed. *)
  dap : Dap.t;
  estimate : Estimate.t;  (** The (perturbed) estimate planning uses. *)
  profile : Estimate.t;  (** The exact (unperturbed) timing profile. *)
}
(** What power-call insertion plans from; it does not depend on the
    insertion scheme, so one analysis serves CMTPM and CMDRPM alike. *)

val analyze :
  ?noise:float ->
  ?seed:int ->
  ?cache_blocks:int ->
  specs:Dpm_disk.Specs.t ->
  Dpm_ir.Program.t ->
  Dpm_layout.Plan.t ->
  analysis
(** The scheme-free front of paper Figure 1: the access analysis, the
    exact timing profile, its perturbation by [noise] (default 0; the
    same [seed], default 42, always gives the same estimate) and the
    DAP.  The analysis and the profile walk the same cache:
    [cache_blocks], by default the trace generator's
    ({!Dpm_trace.Generate.default_config}).  Telemetry: one
    [compile.pipeline] span over the [compile.access],
    [compile.estimate] and [compile.dap] passes; insertion is not in
    it. *)

type compiled = {
  program : Dpm_ir.Program.t;  (** With power calls inserted. *)
  decisions : Insertion.decision list;
  dap : Dap.t;
  estimate : Estimate.t;  (** The (perturbed) estimate planning used. *)
  profile : Estimate.t;  (** The exact (unperturbed) timing profile. *)
}

val insert :
  scheme:Insertion.scheme ->
  ?pm_overhead:float ->
  ?pre_lead:float ->
  ?serve_slow:bool ->
  specs:Dpm_disk.Specs.t ->
  analysis ->
  compiled
(** Power-call insertion ({!Insertion.insert}) into the analysis's
    [source], in a [compile.insert] span of its own (a sibling of
    [compile.pipeline], not inside it). *)

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
(** The full proactive pipeline of paper Figure 1: {!insert} applied to
    {!analyze}. *)
