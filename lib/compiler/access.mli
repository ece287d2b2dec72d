(** Static disk-footprint analysis.

    For each top-level nest and each iteration of its outermost loop, the
    compiler computes which disks the iteration may touch: subscript
    regions over the inner iterators (interval analysis,
    {!Dpm_ir.Reference.region}) are mapped through the layout plan to disk
    sets ({!Dpm_layout.Plan.region_disks}).  The analysis is deliberately
    cache-unaware — it describes where the data {e lives}, which is what
    the paper's compiler can know statically; the buffer cache only makes
    the actual traffic a subset of it. *)

type t = {
  item : int;  (** Top-level item index. *)
  var : string;  (** Outermost iterator (["<item>"] for non-loops). *)
  lo : int;
  step : int;
  iterations : int;  (** Trip count of the outermost loop (1 for non-loops). *)
  per_disk : (int * int) list array;
      (** For each disk, the inclusive runs of outer-iteration ordinals
          (0-based) during which the disk may be accessed; sorted and
          disjoint. *)
  miss_counts : int array array;
      (** [miss_counts.(disk).(ordinal)]: disk requests the iteration
          issues.  Exact for the reuse-aware analysis; the static
          footprint analysis marks one request per active iteration. *)
}

val of_program : Dpm_ir.Program.t -> Dpm_layout.Plan.t -> t list
(** One activity record per top-level item, in order.  Calls yield an
    all-idle activity of one "iteration". *)

val of_program_cached :
  ?cache_blocks:int -> Dpm_ir.Program.t -> Dpm_layout.Plan.t -> t list
(** Reuse-aware variant: a disk counts as active in an outer iteration
    only if the iteration incurs a buffer-cache {e miss} on it.  This is
    the activity the running program actually presents to the disks; the
    compiler can compute it because it knows the exact access sequence
    and the cache policy (the paper's compiler likewise folds locality
    analysis and profiled execution into its DAP).  The purely static
    footprint of {!of_program} stays available for comparison and for
    programs whose access sequence is not statically enumerable.

    A fold over the one loop-nest walk ({!Dpm_trace.Walk}): each miss
    counts against the current outer iteration.  [cache_blocks] defaults
    to the trace generator's ({!Dpm_trace.Generate.default_config}), so
    the access pattern and {!Estimate.profile} plan from one cache. *)

val window_requests : t -> disk:int -> lo:int -> hi:int -> int
(** Total requests a disk receives over an inclusive ordinal range. *)

val value_of_ordinal : t -> int -> int
(** Outer iterator value at an ordinal. *)
