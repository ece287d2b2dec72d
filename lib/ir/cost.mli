(** Cycle cost model.

    The paper converts loop iterations to cycles by timing real executions
    with [gethrtime] on a 750 MHz UltraSPARC-III.  Our substitute is an
    explicit per-statement model: one statement execution costs its [work]
    annotation plus a fixed charge per array reference, and each loop
    iteration pays a bookkeeping overhead.  The simulator uses this model
    as ground truth; the compiler sees a perturbed copy
    ({!Dpm_compiler.Estimate}), reproducing the measurement error that
    drives the paper's Table 3 mispredictions. *)

type model = {
  clock_hz : float;  (** CPU clock; paper: 750 MHz. *)
  cycles_per_ref : int;  (** Cycles per array reference (cache-resident). *)
  loop_overhead : int;  (** Cycles per loop iteration (control flow). *)
}

val default : model
(** 750 MHz, 6 cycles/reference, 4 cycles/iteration. *)

val stmt_cycles : model -> Stmt.t -> int
(** Cycles for one execution of the statement (excluding I/O stalls). *)

val nest_cycles : model -> Loop.t -> int
(** Total compute cycles of a whole (closed) nest.  Uses closed forms
    when inner trip counts do not depend on the surrounding iterators and
    falls back to summation for triangular bounds.  The analytic oracle
    for the cycles the loop-nest walk ([Dpm_trace.Walk]) counts one
    iteration at a time. *)

val seconds : model -> int -> float
(** Convert cycles to seconds. *)

val cycles_of_seconds : model -> float -> int
