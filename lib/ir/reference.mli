(** Array references: an array name plus one affine subscript per
    dimension. *)

type t = { array : string; indices : Expr.t list }

val make : string -> Expr.t list -> t

val eval : (string -> int) -> t -> int list
(** Concrete index vector under an iterator environment. *)

val vars : t -> string list
(** Iterators appearing in any subscript. *)

val subst : string -> Expr.t -> t -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
