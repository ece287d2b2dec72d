(** Lightweight data-dependence analysis.

    Supports the two legality questions the transformation passes ask:
    whether loop distribution may separate two statements, and whether a
    nest is safely tileable.  The test is the classic constant-distance
    test on affine subscripts: exact when both subscripts share their
    linear part and differ by constants, conservative otherwise. *)

type linear = (string * int) list * int
(** Affine normal form: coefficient per iterator (sorted by name,
    zero coefficients dropped) plus a constant. *)

val normal_form : Expr.t -> linear option
(** [None] when the expression contains [Min]/[Max]/[Div] (not affine). *)

type distance =
  | Exact of int list  (** Constant distance per subscript dimension. *)
  | Unknown  (** Conservative: a dependence must be assumed. *)

val ref_distance : Reference.t -> Reference.t -> distance option
(** Distance from the first to the second reference of the {e same} array:
    [None] when the references can never alias (provably different
    constant subscripts in some dimension); [Some Unknown] when the linear
    parts differ; [Some (Exact ds)] when subscripts differ by constants.
    Returns [None] for references to different arrays. *)

val stmts_dependent : Stmt.t -> Stmt.t -> bool
(** Whether the pair shares an array with at least one write and possible
    aliasing — the condition under which program order must be
    preserved. *)

val tiling_legal : Loop.t -> bool
(** Conservative: every dependence is exact and every distance component
    is non-negative (the nest is fully permutable), so rectangular tiling
    preserves semantics. *)
