(** Block-granularity LRU buffer cache.

    The paper assumes "each array reference causes a disk access unless
    the data is captured in the buffer cache".  The loop-nest walk
    filters reference events through this cache, so only misses become
    disk requests.  Keys are dense block numbers in [\[0, keys)]: the
    walk uses a layout plan's global blocks (array base + stripe unit,
    [Dpm_layout.Plan.element_block]); a capacity of zero disables
    caching.

    Implementation: a doubly-linked recency list threaded through two
    int arrays indexed by key.  Every operation is O(1) except {!clear}
    (O(length)); nothing is hashed, {!access} allocates nothing on a
    hit, and {!touch} nothing at all. *)

type t

val create : capacity:int -> keys:int -> t
(** [capacity] is the number of blocks held, [keys] the size of the key
    space.  Raises [Invalid_argument] if either is negative. *)

val capacity : t -> int
val length : t -> int

val access : t -> int -> [ `Hit | `Miss of int option ]
(** [access t k] touches block [k]: [`Hit] if resident (promoted to most
    recently used); [`Miss evicted] otherwise, after evicting the least
    recently used block if the cache held [capacity] blocks and then
    inserting [k] (with capacity 0 nothing is ever inserted).  Raises
    [Invalid_argument] if [k] is outside [\[0, keys)]. *)

val touch : t -> int -> bool
(** [touch t k] is [access t k = `Hit] without building the result, so
    it allocates nothing at all: the walk's per-reference call. *)

val mem : t -> int -> bool
(** Residency test without promoting. *)

val clear : t -> unit

val hits : t -> int
val misses : t -> int
(** Cumulative counters since creation / {!clear}. *)
