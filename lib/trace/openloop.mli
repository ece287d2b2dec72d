(** Open-loop multi-tenant workload model.

    The paper (and every run so far) replays one application's
    closed-loop trace: the next request is issued only after the
    previous one completes.  A fleet-scale service sees the opposite
    regime — independent jobs {e arrive} on their own schedule and
    multiplex onto a shared disk fleet regardless of how fast earlier
    jobs are being served.  This module provides that regime as pure
    trace algebra, upstream of the replay engine:

    - a serializable {e load descriptor} ({!t}): a seeded arrival
      process (Poisson or bursty) that launches [jobs] tenants, each an
      independent copy of one of a list of source workloads picked by
      Zipf popularity;
    - {!plan}: the deterministic expansion of a descriptor into
      [(start_time, source_index)] pairs via the splittable {!Dpm_util.Rng}
      (same seed → same plan on every machine);
    - {!merge}: a k-way merge of per-tenant streams into one
      {!Trace.Stream.t} on the shared think-time clock, so the merged
      stream replays through the unmodified engine (any scheme, any
      fleet, any batch size) and every downstream tool — timeline,
      meter, faults, report — just works.

    The merge is defined on the {e application clock}: tenant [j]'s
    event [i] occurs at virtual time [start_j + Σ think_{0..i}], events
    are interleaved in nondecreasing virtual time (ties broken by
    tenant order), and think times are re-encoded as deltas on the
    merged clock.  Service time does not shift arrivals — that is what
    makes the workload open-loop: a slow disk makes requests pile up
    instead of politely spacing out.  Per-tenant event order and count
    are preserved exactly ({!merge} is a fair interleaving, pinned by a
    qcheck property at batch sizes 1/7/4096). *)

type arrival =
  | Poisson of float
      (** Independent arrivals at [rate] jobs/second (exponential
          inter-arrival times). *)
  | Bursty of { rate : float; burst : int }
      (** Cluster arrivals: cluster starts are Poisson at [rate /.
          burst] so the long-run job rate is still [rate], and each
          cluster launches up to [burst] tenants simultaneously — the
          bursty regime of the energy-aware DBMS evaluation. *)

type t = private {
  arrival : arrival;
  jobs : int;  (** Total tenants to launch (>= 1). *)
  zipf : float;
      (** Zipf popularity exponent over the source list: source [k]
          (0-based) has weight [(k+1) ** -zipf].  [0.] is uniform. *)
  seed : int;  (** Root of the splittable RNG; fixes plan and picks. *)
}
(** A load descriptor.  Private: build with {!make} or {!of_string} so
    validation lives in one place. *)

val make : ?arrival:arrival -> ?jobs:int -> ?zipf:float -> ?seed:int -> unit -> t
(** Defaults: [Poisson 1.0], [jobs = 4], [zipf = 1.0], [seed = 0].
    Raises [Invalid_argument] on a non-positive or non-finite rate, a
    non-positive burst or job count, or a negative or non-finite Zipf
    exponent. *)

val to_string : ?sources:string list -> t -> string
(** Canonical key=value form, e.g.
    ["rate=2,jobs=8,zipf=1,seed=7,sources=galgel:swim"] (plus
    [burst=...] for {!Bursty}).  Floats print with enough digits to
    round-trip bit-exactly through {!of_string}; [sources] entries may
    not contain [','] or [':']. *)

val of_string : string -> (t * string list, string) result
(** Parse the {!to_string} form (also the CLI [--open-loop] syntax).
    Keys: [rate] (float, required), [burst] (int, optional — presence
    selects {!Bursty}), [jobs], [zipf], [seed], and
    [sources=name:name:...] (benchmark names and/or trace-file paths,
    returned verbatim).  Unknown keys and invalid values are errors. *)

val plan : t -> nsources:int -> (float * int) array
(** Expand the descriptor into [jobs] tenants as [(start_time,
    source_index)] pairs, sorted by start time, each index in
    [0..nsources-1].  Deterministic in [(t, nsources)].  Raises
    [Invalid_argument] when [nsources <= 0]. *)

val merge :
  ?batch:int ->
  ?program:string ->
  (float * Trace.Stream.t) list ->
  Trace.Stream.t
(** [merge tenants] interleaves [(start_time, stream)] tenants into one
    stream (see the module preamble for the clock semantics).  The
    merged stream's [ndisks] is the maximum over tenants, [nblocks] the
    (lazily forced) maximum, and its tail think extends to the last
    tenant's end of run, known once the merge is exhausted.  The merge
    is a plain pull: each pull copies rows from the tenants' current
    chunks into one output chunk, refilled in place, and a tenant is
    pulled again only once its chunk is fully read.  Consumes the
    component streams.  O(batch × tenants) peak memory.  Raises
    [Invalid_argument] on an empty tenant list or a negative start
    time. *)
