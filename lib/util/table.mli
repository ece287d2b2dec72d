(** Aligned plain-text tables for the experiment reports.

    The benchmark harness prints the same rows/series the paper reports;
    this module renders them as monospace tables with a title, a header
    row and right-aligned numeric columns. *)

type align = Left | Right

type t

val create : title:string -> columns:(string * align) list -> t
(** [create ~title ~columns] starts an empty table. *)

val add_row : t -> string list -> unit
(** Appends a row; the row must have exactly as many cells as there are
    columns (raises [Invalid_argument] otherwise). *)

val render : t -> string
(** Renders with a box of [-] rules and [|]-free spacing, e.g.:
{v
== Title ==
col-a   col-b
-----   -----
x       1.00
v} *)

val cell_int : int -> string
(** Integer cell. *)

val cell_f : float -> string
(** Numeric cell with two decimals. *)

val cell_f3 : float -> string
(** Numeric cell with three decimals. *)
