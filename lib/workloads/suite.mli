(** The benchmark suite (paper Table 2).

    The paper selects the I/O-dominant loop nests of six Specfp2000 codes,
    makes their data disk-resident, and reports per-benchmark dataset
    size, request count, base energy and execution time.  SPEC sources
    are proprietary, so each benchmark is re-created in the loop-nest DSL
    with the structure the original is known for (see each module) and
    with observables matching Table 2:

    - dataset sizes match by declaration;
    - request counts match structurally (same stripe-unit miss counts
      under the default 12 MB buffer cache);
    - execution times match through {!calibrate}, which scales the
      statements' [work] annotations so the closed-loop run hits the
      paper's reported time — after which base energy matches too, since
      the paper's Table 2 energies follow from its disk datasheet.

    Modeling granularity: one IR element is an 8 KB chunk (8 per 64 KB
    stripe unit); arrays use 512 KB rows (8 stripe units) so that
    row-order sweeps rotate across all 8 disks while column-order sweeps
    pin one disk per column group — the two access regimes whose mix
    determines each benchmark's idle-period structure. *)

type spec = {
  name : string;
  source : unit -> string;  (** DSL text of the re-created benchmark. *)
  noise : float;
      (** Compiler timing-estimation error amplitude (drives Table 3). *)
  data_mb : float;  (** Paper: dataset size, MB. *)
  requests : int;  (** Paper: number of disk requests. *)
  base_energy_j : float;  (** Paper: base disk energy, J. *)
  exec_time_s : float;  (** Paper: base execution time, seconds. *)
}

val all : spec list
(** wupwise, swim, mgrid, applu, mesa, galgel — in the paper's order. *)

val find : string -> spec
(** Lookup by name; raises [Not_found]. *)

val cache_blocks : int
(** Default buffer-cache capacity in stripe units (192 = 12 MB). *)

val program : spec -> Dpm_ir.Program.t
(** Parse the benchmark's DSL source (uncalibrated). *)

val calibrate :
  ?specs:Dpm_disk.Specs.t ->
  target_exec:float ->
  Dpm_ir.Program.t ->
  Dpm_layout.Plan.t ->
  Dpm_ir.Program.t
(** Uniformly scale every statement's [work] so the profiled run time
    equals the target (the service and bookkeeping components are fixed
    by structure; only compute scales). *)

val default_plan : ?ndisks:int -> Dpm_ir.Program.t -> Dpm_layout.Plan.t
(** The paper's default layout: every array striped as (0, 8, 64 KB). *)
