(** Whole programs: the unit the compiler analyzes and transforms.

    A program is a named sequence of top-level items over a set of
    declared disk-resident arrays — the shape of the paper's
    "time-consuming loop nests selected from each application".  Most
    items are loop nests; after power-call insertion the sequence also
    contains top-level power-management calls between loop segments
    (the result of strip-mining a nest around an insertion point). *)

type t = {
  name : string;
  arrays : Array_decl.t list;
  body : Loop.node list;
}

val make :
  name:string -> arrays:Array_decl.t list -> body:Loop.node list -> t
(** Validates: array names unique; every referenced array is declared;
    every subscript's rank matches the declaration; every iterator used in
    a subscript or bound is bound by an enclosing loop (top-level
    statements may therefore only use constant subscripts). *)

val find_array : t -> string -> Array_decl.t
(** Raises [Not_found] for undeclared names. *)

val total_data_bytes : t -> int
(** Sum of the sizes of all declared arrays (Table 2 "Data Size"). *)

val nests : t -> (int * Loop.t) list
(** Top-level loops with their item indices (the DAP's "nest" ids). *)

val item_count : t -> int

val with_body : t -> Loop.node list -> t
(** Replace the item list (used by the transformation passes); re-runs
    validation. *)

val stmts : t -> Stmt.t list
(** Every statement of the program, in textual order. *)

val pp : Format.formatter -> t -> unit
(** Summary line (name, arrays, items); full code printing lives in
    {!Printer}. *)
