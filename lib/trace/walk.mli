(** The one loop-nest walk (paper Fig. 1: one analysis of the loop nests
    feeds both the disk access pattern and the trace generator).

    Executes a program in order against a layout plan and an LRU buffer
    cache of stripe units, counting compute cycles with the cost model,
    and calls back on three things:

    - [iteration]: a top-level loop iteration starts (before its loop
      overhead is counted), with the item, the ordinal
      [(v - lo) / step] and the iterator [v]; also before each top-level
      statement's cycles, with ordinal 0.  A top-level statement binds
      no iterator, so [iter] keeps the last loop's value (0 before any
      loop).  Never called for a top-level call;
    - [miss]: a reference misses the cache, after its statement's
      cycles — reads in textual order, then the write;
    - [call]: a power-management call executes, at any depth.

    Every callback carries [cycles], the integer cycles accrued since the
    previous callback; {!run} returns those accrued after the last one.
    Consumers convert to seconds where they need to, so sums stay exact.
    The trace generator, the reuse-aware access analysis and the timing
    profile are folds over this walk.

    Each {!run} lowers the program once into an integer kernel and
    executes that: iterators live in int slots, subscripts are
    {!Dpm_ir.Expr.lower} evaluators, each reference maps its element to
    a global block through {!Dpm_layout.Plan.element_block}, each
    statement's cycles are counted once, and the cache is a
    {!Dpm_cache.Lru} over the plan's global blocks.  Executing the
    kernel allocates nothing per statement instance.  Iterators bind as
    in the tests' reference walk ([test/enumerate.ml]): a loop binds its
    iterator on entry and unbinds it on exit, even when it shadowed an
    outer one, so a later read of that name raises
    [Invalid_argument "Enumerate: unbound iterator <name>"]. *)

type item = {
  var : string;  (** Outermost iterator; ["<item>"] for non-loops. *)
  lo : int;
  step : int;
  slots : int;
      (** Outer-iteration slots: the trip count, but at least 1 (a
          statement, a call or an empty loop has one slot). *)
}

val items : Dpm_ir.Program.t -> item array
(** The top-level (item, ordinal) coordinates, one entry per item. *)

val run :
  cost:Dpm_ir.Cost.model ->
  cache_blocks:int ->
  iteration:(cycles:int -> item:int -> ordinal:int -> iter:int -> unit) ->
  miss:
    (cycles:int ->
    item:int ->
    array:string ->
    unit:int ->
    kind:Request.kind ->
    unit) ->
  call:(cycles:int -> Dpm_ir.Loop.pm_call -> unit) ->
  Dpm_ir.Program.t ->
  Dpm_layout.Plan.t ->
  int
(** Walks the program once with a fresh cache of [cache_blocks] stripe
    units (0 disables caching); the cache takes two words per global
    block of the plan ({!Dpm_layout.Plan.blocks}).  Errors surface when the offending
    reference executes, after every callback before it: [Not_found] for
    an array missing from the plan, the plan's [Invalid_argument] for an
    index out of range, and the unbound-iterator error above; a
    reference that never executes raises nothing. *)
