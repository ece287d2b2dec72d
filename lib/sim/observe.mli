(** Per-replay telemetry histograms, shared by the reference replay
    body ({!Sched}) and the specialized one ({!Fastpath}).

    A replay accumulates service latency, queue depth and retry counts
    into its own local histograms and merges them into
    {!Dpm_util.Telemetry.global} once at the end ({!flush}) — so
    observation never perturbs simulated values, and both replay cores
    produce identical histogram contents by construction (they call the
    very same accumulation code). *)

type t

val make : unit -> t option
(** [Some] fresh histograms when the global telemetry collector has
    histograms enabled, [None] otherwise. *)

val arrival : t -> ring:float array -> queued:int -> arrival:float -> unit
(** Record the queue depth seen by a request arriving at [arrival]: the
    [queued] requests waiting in its disk's deferred queue (0 under
    FCFS, which issues every request on arrival) plus the completions
    in [ring] still in the future at that time. *)

val service :
  t -> fault:Fault.state option -> retries_before:int -> response:float -> unit
(** Record one request's response time, and (under fault injection) its
    transient-retry count as the delta from [retries_before]. *)

val observe_arrival :
  t option -> ring:float array -> queued:int -> arrival:float -> unit
(** {!arrival} with the [None] check inside — the reference body's
    per-event call shape. *)

val observe_service :
  t option ->
  fault:Fault.state option ->
  retries_before:int ->
  response:float ->
  unit

val observe_dispatch : t option -> wait:float -> seek_blocks:int -> unit
(** Record one scheduler dispatch: the queue wait (dispatch − arrival,
    seconds) and the absolute head travel in stripe units.  Only the
    deferred disciplines call this, so FCFS runs keep these histograms
    empty and {!flush} never registers them. *)

val retries_before : t option -> Fault.state option -> int
(** Retry counter sample before a serve, or 0 when either is off. *)

val flush : t option -> Result.t -> unit
(** Merge into the global collector, including the actual idle-gap
    histogram read off the finished result. *)
