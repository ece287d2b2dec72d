(** Regeneration of every table and figure in the paper's evaluation.

    Each function runs the relevant experiments and returns the data in
    row form plus a rendered text table; the benchmark harness prints
    them.  Energy and time are normalized the way the paper normalizes
    (against the Base scheme of the same configuration; Table 2 reports
    the absolute Base numbers). *)

type row = { label : string; cells : (string * float) list }

type figure = {
  id : string;  (** e.g. ["fig3"]. *)
  title : string;
  rows : row list;
  rendered : string;  (** Ready-to-print text table. *)
}

val table1 : unit -> figure
(** Simulation parameters (constants from {!Dpm_disk.Specs}). *)

val table2 : unit -> figure
(** Benchmark characteristics: measured data size, request count, base
    energy, execution time — next to the paper's targets. *)

val fig3 : unit -> figure
(** Normalized energy, 7 schemes × 6 benchmarks. *)

val fig4 : unit -> figure
(** Normalized execution time, same grid. *)

val table3 : unit -> figure
(** Percentage of mispredicted disk speeds, CMDRPM vs IDRPM. *)

val fig5 : unit -> figure
(** swim: normalized energy vs stripe size (16..256 KB). *)

val fig6 : unit -> figure
(** swim: normalized execution time vs stripe size. *)

val fig7 : unit -> figure
(** swim: normalized energy vs stripe factor (2..16 disks). *)

val fig8 : unit -> figure
(** swim: normalized execution time vs stripe factor. *)

val fig13 : unit -> figure
(** Normalized energy of the code-transformation versions (LF, TL,
    LF+DL, TL+DL) under CMTPM and CMDRPM, relative to the untransformed
    Base. *)

val extensions : unit -> figure
(** Extensions beyond the paper: adaptive-threshold TPM (ATPM) and
    multi-nest layout-aware tiling (TLall+DL, the paper's stated future
    work), energy normalized against the untransformed Base. *)

val shared_subsystem : unit -> figure
(** Extension: swim and galgel co-scheduled on one 8-disk subsystem
    (the paper evaluates "one benchmark program at a time").  Each CM
    application is compiled in isolation, so their directives can fight
    over shared disks. *)

val knob_ablation : unit -> figure
(** Sensitivity of the headline result to the modeling knobs DESIGN.md
    introduces (on swim): per-disk queue bound, RPM modulation speed and
    buffer-cache capacity. *)

val closed_loop_ablation : unit -> figure
(** Extension (not in the paper): the same Figure 3/4 grid under the
    stricter closed-loop replay model, where every service delay
    propagates into execution time. *)

val fault_sweep : unit -> figure
(** Extension (not in the paper): swim under increasing fault-injection
    intensity (transient read errors, bad-sector regions, sticking
    spin-ups, a mid-run disk failure and all four at once), energy and
    time normalized to each row's equally-faulted Base, plus the Base
    replay's injected-event count.  How do the schemes compare when
    spin-ups occasionally fail?  Deterministic: fixed seed per row. *)

val degraded_grid : ?faults:Dpm_sim.Fault.spec -> unit -> figure
(** Extension: the full Figure 3 benchmark × scheme energy grid replayed
    under a fault spec (default: a moderate storm — 1% read errors, 0.5%
    bad units, 20% sticking spin-ups, disk 0 dead at 30 s). *)

val traced : string -> (unit -> figure) -> figure
(** [traced id f] builds [f ()] under a [figure.build] telemetry span
    annotated with [id] — one parent per figure in a [--trace] export,
    with the grid's pool tasks underneath.  [dpmsim figure] and the
    benchmark harness route through it. *)

val catalogue : (string * (unit -> figure)) list
(** Every figure above by its CLI id, in paper order (the extensions,
    ablations and fault figures last): [table1] [table2] [fig3] [fig4]
    [table3] [fig5]..[fig8] [fig13] [ext] [ext-shared] [ablation-knobs]
    [ablation-closed] [fault-sweep] [fig3-degraded] (the
    {!degraded_grid} default storm).  The one list of figure ids. *)
