(** Affine integer expressions over loop iterators.

    Subscript expressions and loop bounds in the IR are affine in the
    enclosing loop iterators (plus [Min]/[Max], which show up in tiled
    bounds).  The compiler passes rely on exact evaluation: {!eval} under
    an environment, and {!lower}, the same meaning compiled once for the
    loop-nest walk.  The transformations add substitution, shifting and
    simplification. *)

type t =
  | Const of int
  | Var of string  (** A loop iterator. *)
  | Add of t * t
  | Sub of t * t
  | Mul of int * t  (** Scaling by a constant keeps the expression affine. *)
  | Div of t * int  (** Floor division by a positive constant (tiling). *)
  | Min of t * t
  | Max of t * t

val const : int -> t
val var : string -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val scale : int -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t

val eval : (string -> int) -> t -> int
(** [eval env e] evaluates exactly.  [env] raises [Not_found] for unbound
    iterators, which {!eval} converts into [Invalid_argument] carrying the
    iterator name. *)

val lower : slot:(string -> int) -> t -> int array -> int
(** [lower ~slot e] compiles [e] once into an evaluator over an array of
    iterator values, where [slot x] is the index holding iterator [x]:
    for every [s], [lower ~slot e s] is [eval (fun x -> s.(slot x)) e],
    exceptions included, with the same floor division.  When [slot]
    resolves every iterator of [e], the evaluator allocates nothing
    ([Add]/[Sub]/[Mul] subtrees fold to coefficients over slots, which
    is exact under wrapping integer arithmetic); when it raises for one,
    the evaluator defers to {!eval}, so the error surfaces at
    evaluation, in [eval]'s order. *)

val vars : t -> string list
(** Iterators occurring in the expression, sorted, without duplicates. *)

val subst : string -> t -> t -> t
(** [subst x by e] replaces iterator [x] with expression [by] in [e]. *)

val shift : string -> int -> t -> t
(** [shift x k e] substitutes [x + k] for [x]; used by strip-mining. *)

val simplify : t -> t
(** Constant folding and neutral-element elimination. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
