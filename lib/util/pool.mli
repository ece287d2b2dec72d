(** Fixed-size worker pool over OCaml 5 domains.

    The experiment grids (benchmark × scheme × configuration) are
    embarrassingly parallel and share nothing: every run parses, compiles
    and simulates against its own freshly built state.  This module fans
    such grids out over a fixed set of domains while keeping the results
    {e deterministic}: [map f xs] always returns results in input order,
    and the values are independent of the domain count because each task
    owns all of its mutable state (see the audit note in DESIGN.md §2).

    Built only on stdlib [Domain], [Mutex] and [Condition] — no
    dependencies beyond the compiler. *)

type t
(** A pool of worker domains consuming jobs from a shared queue. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains] worker domains (default
    {!default_domains}).  [domains <= 1] creates a degenerate pool that
    runs everything on the calling domain. *)

val size : t -> int
(** Number of worker domains (0 for a degenerate pool). *)

val run : t -> ('a -> 'b) -> 'a list -> 'b list
(** [run pool f xs] applies [f] to every element of [xs] on the pool's
    workers and returns the results in input order.  If one or more
    applications raise, queued tasks above the lowest failed index are
    cancelled, every in-flight task is drained, and the exception of the
    {e lowest-indexed} failing element is re-raised on the calling domain
    (with its backtrace) — so the surfaced error is deterministic too.
    The pool stays usable after a failed batch. *)

val shutdown : t -> unit
(** Signals the workers to exit and joins them.  Idempotent.  Calling
    {!run} on a shut-down pool raises [Invalid_argument]. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot convenience: [create], [run], [shutdown].  With
    [~domains:1] (or a single-element list) this is exactly [List.map f
    xs] on the calling domain. *)

val default_domains : unit -> int
(** The domain count used when [?domains] is omitted.  Initially
    [Domain.recommended_domain_count ()], clamped to [[1, 8]]; the
    [DPM_DOMAINS] environment variable overrides the initial value, and
    {!set_default_domains} overrides both (the CLI [--domains] flag ends
    up here). *)

val set_default_domains : int -> unit
(** Sets {!default_domains} for the rest of the process (clamped to at
    least 1). *)
