(** Disk access analysis: which disks each outer-loop iteration of the
    program touches, and with how many requests.

    For each top-level item and each iteration of its outermost loop,
    the compiler counts the buffer-cache misses the iteration incurs on
    every disk.  A disk is active in an iteration exactly when that
    count is non-zero.  This is the activity the running program
    presents to the disks: the compiler knows the access sequence and
    the cache policy, as the paper's compiler folds locality analysis
    and profiled execution into its DAP.  The analysis is a fold over
    the one loop-nest walk ({!Dpm_trace.Walk}). *)

type t = {
  item : int;  (** Top-level item index. *)
  var : string;  (** Outermost iterator (["<item>"] for non-loops). *)
  lo : int;
  step : int;
  iterations : int;  (** Trip count of the outermost loop (1 for non-loops). *)
  per_disk : (int * int) list array;
      (** For each disk, the inclusive runs of outer-iteration ordinals
          (0-based) during which the disk is accessed; sorted and
          disjoint. *)
  miss_counts : int array array;
      (** [miss_counts.(disk).(ordinal)]: disk requests the iteration
          issues. *)
}

val of_log : Dpm_trace.Walk.log -> t list
(** One activity record per top-level item of the logged program, in
    order; a statement or a call is one "iteration".  Each miss of the
    walk counts against the current outer iteration. *)

val of_program_cached :
  ?cache_blocks:int -> Dpm_ir.Program.t -> Dpm_layout.Plan.t -> t list
(** {!of_log} of a fresh walk under the default cost model.
    [cache_blocks] defaults to the trace generator's
    ({!Dpm_trace.Generate.default_config}), so the access pattern and
    {!Estimate.profile} plan from one cache. *)

val window_requests : t -> disk:int -> lo:int -> hi:int -> int
(** Total requests a disk receives over an inclusive ordinal range. *)

val value_of_ordinal : t -> int -> int
(** Outer iterator value at an ordinal. *)
