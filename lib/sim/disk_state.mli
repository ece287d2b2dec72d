(** Per-disk power state machine with lazy energy integration.

    A disk is in one of five phases: spinning and ready at some RPM level,
    modulating between two levels, spinning down, in standby, or spinning
    back up.  Every operation first integrates the energy drawn since the
    previous operation (at the phase's power), then applies the state
    change, so total energy is exact regardless of event spacing.

    Operations requested while a transition is in flight chain after it —
    e.g. a [set_level] issued mid-modulation takes effect when the current
    modulation finishes, and a request arriving in standby triggers the
    automatic spin-up the paper describes ("the disk is automatically spun
    up when an access comes"). *)

type phase =
  | Ready of int  (** Spinning at an RPM level, able to serve. *)
  | Changing of { from_level : int; to_level : int; finish : float }
  | Spinning_down of { finish : float }
  | Standby
  | Spinning_up of { finish : float }

type t = {
  specs : Dpm_disk.Specs.t;
  disk_id : int;
  recorder : Timeline.sink option;
  mutable phase : phase;
  hot : float array;
      (** The three per-request mutable floats, indexed by
          {!ix_last_update} (energy integrated up to here),
          {!ix_total_energy} and {!ix_idle_start}.  They live in a flat
          float array rather than as record fields because a float
          field of a mixed record boxes on every write, and these are
          written per served request on the replay fast path. *)
  mutable busy : Float.Array.t;
      (** Service intervals as interleaved (start, end) pairs, in
          [busy.(0) .. busy.(nbusy - 1)], sorted by start, grown by
          {!busy_slot}: an unboxed column, so recording a request
          allocates nothing.  The slack past [nbusy] is zero. *)
  mutable nbusy : int;
  mutable served : int;
  mutable transitions : int;
  mutable spin_downs : int;
  residency : float array;
  mutable standby_time : float;
  mutable trans_time : float;
  mutable killed_at : float option;
      (** When {!fail} froze the disk ([None] while it is alive). *)
  idle_power : float array;
      (** Per-level {!Dpm_disk.Power.idle}, precomputed at {!create}
          through the very same calls the general path makes per
          request — table lookups are bit-identical to recomputing. *)
  active_power : float array;  (** Per-level {!Dpm_disk.Power.active}. *)
  svc_base : float array;
      (** Per-level [seek_time +. rotation_time] — the byte-independent
          part of {!Dpm_disk.Service.request_time}. *)
  svc_denom : float array;
      (** Per-level {!Dpm_disk.Service.transfer_denom}. *)
}
(** Exposed concretely so the specialized replay core ({!Fastpath}) can
    inline the [Ready]-phase service arithmetic with no per-event
    boxing.  Outside this library, treat every field as private: read
    through the accessors below and mutate only through the operations
    — direct writes bypass the lazy energy integration and corrupt the
    accounting. *)

val ix_last_update : int
val ix_total_energy : int
val ix_idle_start : int

val ix_svc_bytes : int
(** With {!ix_svc_level} and {!ix_svc_quot}: a one-entry cache of the
    last transfer-time quotient [bytes /. svc_denom.(level)], keyed by
    its operands.  A hit reproduces the division's bits exactly, so
    users of the cache stay byte-identical to recomputing; maintained
    by the fast replay core ({!Fastpath}), ignored elsewhere. *)

val ix_svc_level : int
val ix_svc_quot : int

val create : ?recorder:Timeline.sink -> Dpm_disk.Specs.t -> id:int -> t
(** A disk starts ready at full speed at time 0.  With a [recorder],
    every charged residency span, service interval and aborted spin-up
    is also emitted as a {!Timeline} event; recording is strictly
    observational and never alters the accounting. *)

val busy_slot : t -> int
(** Reserve the next (start, end) pair of [busy], growing the column
    (zero-filled) when full, and return the index of its start; the
    caller stores both floats.  Only ints cross the call, so the floats
    stay unboxed. *)

val id : t -> int
val phase : t -> phase

val level : t -> int
(** Current level when [Ready]; the target level when [Changing]; 0 when
    in or entering standby; top level when spinning up. *)

val idle_since : t -> float
(** Start of the current idle period (last request completion, or 0). *)

val advance : t -> float -> unit
(** Integrate energy up to the given time, resolving any transitions that
    complete before it.  Monotone: earlier times are no-ops. *)

val set_level : t -> now:float -> int -> unit
(** Begin modulating toward a level (DRPM).  No-op if already there;
    chains after an in-flight transition; ignored in standby (a standby
    disk has no spindle to modulate). *)

val spin_down : t -> now:float -> unit
(** Begin spinning down to standby (TPM).  No-op if already in or heading
    to standby; chains after an in-flight spin-up or modulation. *)

val spin_up : t -> now:float -> unit
(** Begin spinning up from standby.  No-op if ready or already rising;
    chains after an in-flight spin-down. *)

val serve : t -> now:float -> bytes:int -> float
(** Serve one request arriving at [now]: waits out any transition (a
    standby disk pays the full spin-up), serves at the then-current level,
    charges active energy, records the busy interval, and returns the
    completion time. *)

val occupy : t -> now:float -> seconds:float -> float
(** Hold the disk busy for a fixed duration at active power (resolving
    any transition first, like {!serve}) without counting a served
    request — the cost of a bad-sector remap under fault injection.
    Returns the time the disk frees up; a non-positive duration is a
    no-op. *)

val abort_spin_up : t -> now:float -> fraction:float -> float
(** A spin-up attempt that sticks: from [Standby], charges
    [fraction × e_spin_up] ({!Dpm_disk.Power.aborted_spin_up_energy}) over
    [fraction × t_spin_up] seconds, leaves the disk in [Standby], and
    returns when the failed attempt settles.  In any other phase it is a
    no-op returning [now]. *)

(** {2 Hard failure} *)

val fail : t -> at:float -> unit
(** Take the disk offline: integrates energy up to [at], then freezes the
    state machine — every later operation ({!advance}, {!serve},
    {!set_level}, {!spin_down}, {!spin_up}, {!occupy}) becomes a no-op,
    so a dead disk stops drawing power and serving requests.  The replay
    engine redirects its load to the surviving disks.  The kill time
    ({!killed_at}) is [at], or the end of the service in progress if
    that is later: every busy interval ends by it. *)

val is_failed : t -> bool

val killed_at : t -> float option
(** The kill time, once {!fail} has frozen the disk. *)

val record : t -> at:float -> Timeline.mark -> unit
(** Append a point event (fault signature, applied directive) to this
    disk's timeline, if any.  No-op without a recorder. *)

val finalize : t -> at:float -> unit
(** Integrate up to the end of the run. *)

(** {2 Statistics} *)

val energy : t -> float

val requests_served : t -> int
val transition_count : t -> int
(** RPM modulations begun. *)

val spin_down_count : t -> int
val level_residency : t -> float array
(** Seconds spent ready at each level (index = level). *)

val standby_residency : t -> float

val transition_residency : t -> float
(** Seconds spent modulating, spinning down or spinning up. *)
