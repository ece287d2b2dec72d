(** Iteration walker: executes a program's loop structure in program
    order, delivering one event per statement execution and per
    power-management call.

    This is the dynamic ground truth that both the trace generator and the
    DAP validity tests are built on.  The walker maintains a single
    mutable environment, so the [env] lookup passed to callbacks is only
    valid during the callback. *)

type callbacks = {
  on_enter : nest:int -> depth:int -> var:string -> value:int -> unit;
      (** Called at the start of every loop iteration; [depth] is 0 for a
          nest's outermost loop. *)
  on_stmt : nest:int -> Stmt.t -> (string -> int) -> unit;
      (** Called per statement execution with the current environment. *)
  on_call : nest:int -> Loop.pm_call -> (string -> int) -> unit;
      (** Called per executed power-management call. *)
}

val nothing : callbacks
(** Callbacks that ignore every event. *)

val run : callbacks -> Program.t -> unit
(** Walks all nests in order. *)

val count_stmt_executions : Program.t -> int
(** Total dynamic statement count (convenience over {!run}). *)
