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

    A job walks once: {!log} records every callback of one walk, and the
    trace generator, the reuse-aware access analysis and the timing
    profile are folds over that record ({!iter}).  A compiled program
    is not walked again: its calls sit at top-level iteration
    boundaries ({!insert_calls}), so {!splice} derives its record from
    the source program's.

    Each walk lowers the program once into an integer kernel and
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

(** {1 The miss log} *)

type log
(** One walk, recorded: every callback of {!run} in order, four ints per
    record (its top-level item and kind, two payload fields and its
    integer cycles), plus the tail.  A log carries the program, plan,
    cost model and cache size it was walked with, so a consumer reads
    them from the log rather than being handed a possibly different
    pair.  Two logs of the same walk are structurally equal. *)

val log :
  cost:Dpm_ir.Cost.model ->
  cache_blocks:int ->
  Dpm_ir.Program.t ->
  Dpm_layout.Plan.t ->
  log
(** Walks the program once, as {!run} does, and records the walk; a
    program on which {!run} raises makes [log] raise the same
    exception.  Wall time is recorded under the [trace.walk] span of
    {!Dpm_util.Telemetry.global} (a no-op unless enabled). *)

val iter :
  log ->
  iteration:(cycles:int -> item:int -> ordinal:int -> iter:int -> unit) ->
  miss:
    (cycles:int ->
    item:int ->
    array:string ->
    unit:int ->
    kind:Request.kind ->
    unit) ->
  call:(cycles:int -> Dpm_ir.Loop.pm_call -> unit) ->
  int
(** Replays exactly the callbacks {!run} made on the logged walk, in
    order, and returns its tail. *)

val program : log -> Dpm_ir.Program.t
val plan : log -> Dpm_layout.Plan.t
val cost : log -> Dpm_ir.Cost.model

(** {1 Calls at iteration boundaries} *)

type points = (int * Dpm_ir.Loop.pm_call) list array
(** Power-management calls to insert, per top-level item (an index past
    the array has none): a list of [(ordinal, call)] sorted by ordinal,
    where ordinal [k] is the boundary before the item's [k]-th outer
    iteration.  Calls on one boundary keep their list order. *)

val insert_calls : points -> Dpm_ir.Program.t -> Dpm_ir.Program.t
(** The rewrite: each top-level loop with points is strip-mined at its
    boundaries, ordinals clamped to [\[0, trips\]], into segments over
    the same iterations with the calls between them as top-level items;
    a statement's or call's points all go before it. *)

val splice : log -> points -> log
(** [splice l points] is the log a walk of
    [insert_calls points (program l)] would record, derived without
    walking: each boundary's calls go just before the record that
    follows the boundary (or before the tail), the first taking that
    record's cycles and the record keeping 0; top-level items are
    renumbered as the rewrite numbers them, and ordinals count from
    their segment's first iteration.  Cycles are integers, so every
    think time derived from the spliced log equals a re-walk's bit for
    bit. *)
