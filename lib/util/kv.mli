(** Key=value descriptors: the one reader behind the fault spec, the
    open-loop load and the sweep axes strings.

    A descriptor is a list of clauses split on one separator character,
    blank clauses ignored; each clause is [key=value].  Values read
    through {!int} and {!float}, whose errors name the key and the bad
    value.  Nothing here raises. *)

val clauses : sep:char -> string -> string list
(** The non-blank clauses, trimmed, in order. *)

val pairs : sep:char -> string -> ((string * string) list, string) result
(** Each clause split at its first ['='] into a trimmed (key, value);
    a clause without one is an error naming it. *)

val int : string -> string -> (int, string) result
(** [int key v] reads an integer: an OCaml integer literal or an
    integral number such as ["8.0"].  Anything else, ["10.5"] included,
    is ["key: expected an integer, got \"v\""]. *)

val float : string -> string -> (float, string) result
(** [float key v] reads a number; otherwise
    ["key: expected a number, got \"v\""]. *)

val all : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** Maps in order and stops at the first error. *)
