(** Array grouping (paper Figure 11, first phase).

    Arrays accessed by a common statement are coupled; the transitive
    closure of coupling partitions the program's arrays into groups.
    Statements then fall entirely inside one group, so distributing a loop
    by groups can never separate dependent statements — which is what
    makes the fission pass's legality argument structural. *)

type t
(** A partition of array names. *)

val of_program : Dpm_ir.Program.t -> t
(** Union over every statement of the whole program (the paper's loop
    "for each loop nest / for each statement"). *)

val groups : t -> string list list
(** The groups, each sorted, ordered by first appearance. *)

val group_of : t -> string -> int
(** Index (into {!groups}) of the group containing an array.  Raises
    [Not_found] for unknown arrays. *)

val group_count : t -> int

val group_bytes : Dpm_ir.Program.t -> t -> int array
(** Total declared data per group — the quantity the proportional disk
    allocation divides by. *)

val stmt_group : t -> Dpm_ir.Stmt.t -> int
(** Group of a statement (all its arrays are in one group by
    construction). *)
