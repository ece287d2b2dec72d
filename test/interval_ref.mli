(** Reference interval algebra over half-open [\[lo, hi)] pairs: the
    list-based normalization and complement that derived a disk's idle
    gaps before {!Dpm_sim.Result.idle_gaps} became one indexed pass over
    the busy column.  The tests check that pass against
    [complement ~lo:0.0 ~hi:exec_time (normalize busy)]. *)

val normalize : (float * float) list -> (float * float) list
(** Sorted by start (stably), disjoint and non-adjacent, every pair with
    [lo < hi]: pairs with [hi <= lo] are dropped, overlapping or
    touching pairs merge. *)

val complement :
  lo:float -> hi:float -> (float * float) list -> (float * float) list
(** [complement ~lo ~hi s] is [\[lo, hi)] minus the normalized [s]: the
    gaps, sorted and non-empty. *)

val measure : (float * float) list -> float
(** Total length. *)
