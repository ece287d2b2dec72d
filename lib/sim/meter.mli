(** Software-defined power meter: streaming per-disk power samples at a
    fixed resolution, derived online from the {!Timeline} event sink.

    The simulator's native unit of power accounting is the {e event} — a
    residency span, a service interval, an aborted spin-up — each worth
    a lump of energy under the {!Dpm_disk.Power} tables.  A [Meter]
    re-expresses that event stream as what a physical power meter would
    show, pricing each event with {!Timeline.energy_of} (the pricing
    {!Timeline.reintegrate} sums): one sample per disk per resolution
    window, where a sample's [watts] is the {e mean} power over its
    window (window energy divided by window width).  Mean-power
    sampling makes the meter's rectangular
    (= trapezoidal, the power is piecewise constant) integral telescope
    back to the exact per-event energy sum, so

    {[ integral meter  =  Timeline.reintegrate log  =  Result.energy ]}

    to floating-point noise — the invariant [test/test_meter.ml] pins at
    ≤ 1e-6 relative across schemes, heterogeneous fleets and faults.

    Sampling semantics at state boundaries: an event spanning
    [[t0, t1)] deposits energy into every window it overlaps, pro-rated
    by overlap (constant power within the event).  Zero-width spans
    carry no energy and are skipped (the flash tier's instant
    transitions would otherwise multiply an infinite power by zero
    width); a zero-width event that {e does} carry energy (an aborted
    spin-up on an instant-transition model) deposits its whole energy
    into the window containing [t0].  Analytic (oracle) logs under
    fault injection may back-extend a burst before time 0; the pre-zero
    share of such an event lumps into window 0, conserving energy.
    Windows are [[kΔ, (k+1)Δ)] with
    the last one truncated at the {!horizon} — the latest event end
    seen, which may exceed [sim_end] when a transition is still in
    flight at application completion (the engine charges it whole).

    Metering is strictly observational: it consumes the sink's
    {!Timeline.on_emit} tap and never touches the engine, so results are
    byte-identical with the meter on or off and the fast replay core
    stays engaged. *)

type sample = {
  disk : int;
  index : int;  (** Window number: the window covers [[iΔ, (i+1)Δ)]. *)
  t0 : float;
  t1 : float;  (** Window end (truncated to {!horizon} for the last). *)
  watts : float;  (** Mean power over [[t0, t1)]. *)
}

type t

val default_resolution : float
(** 0.1 s. *)

val create :
  ?resolution:float ->
  ?specs:Dpm_disk.Specs.t ->
  ?fleet:Dpm_disk.Specs.t array ->
  ?capacity:int ->
  ?on_sample:(sample -> unit) ->
  unit ->
  t
(** A fresh meter.  [resolution] is the window width Δ in seconds
    (default {!default_resolution}; raises [Invalid_argument] unless
    positive and finite).  [specs]/[fleet] resolve each disk's power
    tables exactly like {!Timeline.reintegrate} (explicit fleet
    round-robin by disk id, else homogeneous [specs], default
    {!Config.default} — pass the run's own config values; sinks are
    labelled only at end of run, too late for online sampling).
    [capacity] bounds the retained samples per meter ({!Dpm_util.Ring}
    semantics: newest kept, {!dropped} counts evictions; the integral
    and peak/mean statistics are exact regardless).  [on_sample] is
    called live as each window closes — per disk in window order,
    interleaved across disks. *)

val attach : t -> Timeline.sink -> unit
(** Subscribe to a sink: every event the replay emits is {!feed} into
    the meter, online.  One meter per sink per replay, like the sink
    itself. *)

val feed : t -> Timeline.event -> unit
(** Consume one event.  Per-disk event streams must be chronological in
    [t0] (what engine and oracle logs guarantee); windows close — and
    [on_sample] fires — as soon as no later event can overlap them.
    Raises [Invalid_argument] after {!finish}. *)

val finish : t -> unit
(** Close all remaining windows (every lane is padded with zero-power
    samples out to the common {!horizon}, so lanes stay rectangular).
    Idempotent; reading functions below may be called before [finish],
    but only cover the windows closed so far. *)

val of_timeline :
  ?resolution:float ->
  ?specs:Dpm_disk.Specs.t ->
  ?fleet:Dpm_disk.Specs.t array ->
  ?capacity:int ->
  Timeline.t ->
  t
(** Offline metering of a frozen log: feed every event, then
    {!finish}.  Unlike {!create}, the default model resolution uses the
    log's own fleet label ({!Timeline.resolve_models}). *)

(** {1 Reading the meter} *)

val resolution : t -> float
val ndisks : t -> int

val sim_end : t -> float
(** From the fed [Sim_end] event (0 before one arrives). *)

val horizon : t -> float
(** Latest event end fed so far ([max sim_end] once finished). *)

val nwindows : t -> int
(** Windows per lane once finished: [ceil (horizon / resolution)]. *)

val samples : t -> sample list
(** Retained samples, disk-major then window order ([dropped] oldest
    evicted first under a [capacity] bound). *)

val lane : t -> int -> sample list
(** One disk's retained samples, window order. *)

val dropped : t -> int
(** Samples evicted by the [capacity] bound (0 when unbounded). *)

val integral : t -> Timeline.energy
(** Per-disk and total [Σ watts × width] over every {e emitted} sample
    (dropped ones included — the sum is accumulated as windows close).
    After {!finish} this matches [Timeline.reintegrate] on the same
    events, hence [Result.energy], to ≤ 1e-6 relative. *)

val peak_power : t -> float
(** Max over closed windows of the fleet-wide power sum (W). *)

val mean_power : t -> float
(** Total energy over the horizon so far (W); 0 on an empty meter. *)

val strip : ?width:int -> t -> string
(** Per-disk power strip: one fixed-width lane per disk over
    [[0, horizon]], each column shaded ([ .:-=+*#%@]) by that bucket's
    mean power relative to the fleet's peak per-disk sample. *)

val summary : t -> string
(** Human-readable section: resolution/windows header, the power strip,
    a per-disk peak/mean/energy table and the fleet peak/mean. *)

(** {1 Export — schema [dpm-meter/1]} *)

val schema_version : string
(** ["dpm-meter/1"]. *)

(** One meter's wire form: a meta header plus its retained samples. *)
type section = {
  m_scheme : string;
  m_program : string;
  m_resolution : float;
  m_ndisks : int;
  m_windows : int;
  m_sim_end : float;
  m_horizon : float;
  m_fleet : string list;
      (** Model registry slugs, round-robin by disk id; a single slug
          means a homogeneous fleet. *)
  m_dropped : int;
  m_samples : sample list;
}

val to_section : ?scheme:string -> ?program:string -> t -> section
(** Snapshot for export; [scheme]/[program] label the section (the
    meter itself does not know them — it only sees events). *)

val write_jsonl : section -> out_channel -> unit
(** One JSON object per line: a [{"schema":"dpm-meter/1", ...}] meta
    line, then one line per sample.  Floats print ["%.17g"], so
    {!read_jsonl} round-trips bit-exactly.  Several sections may share
    one file (one per scheme). *)

val write_csv : section -> out_channel -> unit
(** Header row + one row per sample
    ([scheme,program,disk,index,t0,t1,watts]). *)

val read_jsonl : in_channel -> (section list, string) result
(** Parses what {!write_jsonl} wrote (any number of concatenated
    sections).  Never raises on bad input: the first bad line (bad
    JSON or schema, a missing field, a sample before any meta line) is
    an [Error] naming it. *)
