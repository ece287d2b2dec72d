(** Disk layout plans: where every array of a program lives.

    A plan fixes, for each array, its file's striping 3-tuple and its
    storage order (row- or column-major — the layout transformation of the
    paper's tiling pass flips this), plus the size of the disk subsystem.
    Each array is stored in its own file; files are given disjoint global
    block ranges so that trace records carry unambiguous "start block
    numbers".  Queries are per element or per stripe unit:
    {!element_block} is the one element rule, and the compiler's access
    analysis walks the program through it rather than reasoning about
    regions. *)

type order = Row_major | Col_major

type entry = {
  decl : Dpm_ir.Array_decl.t;
  striping : Striping.t;
  order : order;
}

type t

val make : ndisks:int -> entry list -> t
(** Validates every entry against the disk count. *)

val uniform :
  ?order:order -> ?striping:Striping.t -> ndisks:int -> Dpm_ir.Program.t -> t
(** One entry per declared array, all with the same striping (default:
    {!Striping.default}) and order (default row-major) — the paper's
    default configuration. *)

val ndisks : t -> int
val entry : t -> string -> entry
(** Raises [Not_found] for arrays absent from the plan. *)

val entries : t -> entry list
val set_striping : t -> string -> Striping.t -> t
val set_order : t -> string -> order -> t

val element_offset : t -> string -> int list -> int
(** Byte offset of an element within its array's file, honouring the
    entry's storage order.  Raises [Not_found] for an array absent from
    the plan, and [Invalid_argument] for an index vector of the wrong
    rank or with an index out of range. *)

val element_block : t -> string -> int array -> int
(** The one element rule.  [element_block t name] resolves the array
    once (raising [Not_found] if the plan lacks it) and returns the map
    from an index vector, in subscript order, to the global block of the
    stripe unit holding that element: storage order, the bounds check
    (raising as {!element_offset} does), linearization, the stripe unit
    and the array's base block.  The returned function allocates
    nothing; the loop-nest walk resolves each reference through it. *)

val element_unit : t -> string -> int list -> int
(** Stripe unit (= cache block) the element falls in: {!element_block}
    less the array's base block. *)

val unit_disk : t -> string -> int -> int
(** Disk holding a stripe unit of the given array. *)

val unit_count : t -> string -> int
(** Stripe units in the array's file. *)

val unit_bytes : t -> string -> int -> int
(** Bytes in a stripe unit of the array's file: the stripe size, less
    for a partial last unit.  The size of the disk request a miss on
    that unit issues. *)

val unit_global_block : t -> string -> int -> int
(** Globally unique block number for a stripe unit (file base + unit);
    this is the trace's "start block number" space. *)

val blocks : t -> int
(** Size of that space: every global block lies in [\[0, blocks t)]. *)

val pp : Format.formatter -> t -> unit
