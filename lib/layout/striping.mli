(** Striping descriptors.

    The paper specifies the disk layout of an array (stored in one file)
    as the 3-tuple [(starting disk, stripe factor, stripe size)] — the
    same semantics as PVFS's [base]/[pcount]/[ssize].  Stripe units are
    dealt round-robin over [stripe_factor] consecutive disks starting at
    [start_disk], wrapping modulo the total number of disks in the
    subsystem. *)

type t = {
  start_disk : int;  (** First I/O node used by this file. *)
  stripe_factor : int;  (** Number of disks the file is striped over. *)
  stripe_size : int;  (** Stripe unit in bytes; paper default 64 KB. *)
}

val make : start_disk:int -> stripe_factor:int -> stripe_size:int -> t
(** Validates positivity of the factor and size and a non-negative start
    disk. *)

val default : t
(** Table 1 defaults: [(0, 8, 64 KB)]. *)

val unit_of_offset : t -> int -> int
(** Stripe-unit index of a byte offset within the file. *)

val disk_of_unit : t -> ndisks:int -> int -> int
(** Disk holding a given stripe unit.  Requires
    [stripe_factor <= ndisks] and [start_disk < ndisks]. *)

val disks_used : t -> ndisks:int -> file_bytes:int -> int list
(** Sorted list of disks that hold at least one unit of a file of the
    given size. *)

val units_in_file : t -> file_bytes:int -> int
(** Number of stripe units, rounding the tail up. *)

val region_disk_spread : t -> ndisks:int -> lo:int -> hi:int -> (int * int) list
(** [region_disk_spread t ~ndisks ~lo ~hi] is how a contiguous run of
    stripe units [lo..hi] (inclusive) spreads over the array: a sorted
    [(disk, unit count)] list covering exactly [hi - lo + 1] units.
    Because units are dealt round-robin, a contiguous bad region of a
    striped file damages up to [stripe_factor] disks at once — this is
    the geometry the fault-injection layer reports.  Empty when
    [hi < lo]; requires [stripe_factor <= ndisks] and
    [start_disk < ndisks] like {!disk_of_unit}. *)

val pp : Format.formatter -> t -> unit
(** Prints the paper's 3-tuple form, e.g. ["(0, 8, 64KB)"]. *)
