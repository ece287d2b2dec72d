(** The fleet simulation service: a job daemon over the domain pool.

    A {!t} accepts {!Run.spec} jobs, schedules them across the OCaml 5
    domain {!Dpm_util.Pool} behind a bounded admission queue, and
    produces one [dpm-report/1] document per job
    ({!Report.document}-built, so the shape matches every other report
    in the system).  Admission is explicitly backpressured: when the
    queue is at capacity, {!submit} returns
    [Error (Queue_full {retry_after})] — the 429 of this protocol —
    and after {!shutdown} begins, [Error Shutting_down].  Metered jobs
    additionally stream live [dpm-meter/1] power samples per scheme as
    their replay closes each meter window, so a shared fleet's live
    power is one subscription rather than a post-hoc file merge.

    Determinism: a job is executed by {!Run.observe} of its spec
    (observational timeline sinks, and meters for metered jobs), so
    every daemon run is bit-identical to a direct [Run.exec_all] of the
    same spec, whatever the queue pressure or worker interleaving
    (pinned by [test/test_serve.ml]: N parallel submits over a
    depth-limited queue produce byte-identical reports to serial
    execution).  Job ids are
    assigned in admission order.

    {!Net} wraps the same service in a line-framed JSON protocol over a
    Unix or TCP socket — the [dpmsim serve] daemon and the
    [dpmsim submit] client (DESIGN.md §16 documents the framing). *)

type t

type outcome = {
  job : int;
  label : string;  (** The spec's workload label ({!Run.workload_label}). *)
  results : (Scheme.t * Dpm_sim.Result.t) list;
  report : Dpm_util.Json.t;  (** The [dpm-report/1] document. *)
}

type stats = {
  queued : int;  (** Jobs admitted but not yet picked up by a worker. *)
  running : int;
  completed : int;  (** Jobs finished since {!create} (either outcome). *)
  rejected : int;  (** Submissions bounced with [Queue_full]. *)
}

val create :
  ?domains:int ->
  ?queue:int ->
  ?retry_after:float ->
  ?runner:
    (Run.spec -> ((Scheme.t * Dpm_sim.Result.t) list, Run.error) result) ->
  unit ->
  t
(** Start a service.  [domains] sizes the worker pool
    (default {!Dpm_util.Pool.default_domains}; [1] executes jobs
    serially).  [queue] bounds the number of {e waiting} jobs (default
    64; running jobs do not count) — depth 0 admits a job only when a
    worker picks it up before the next submission.  [retry_after]
    (default 1 s) is the hint carried by [Queue_full] rejections.
    [runner] replaces the job executor (default [Run.exec_all]) — a test
    seam for deterministic backpressure scenarios, passed to
    {!Run.observe} as its [run]; the spec the runner gets carries the
    job's sinks and meters.
    Raises [Invalid_argument] on a negative queue depth or non-positive
    [domains]/[retry_after]. *)

val capacity : t -> int
(** The admission-queue bound. *)

val submit :
  ?meter:float ->
  ?on_sample:(scheme:string -> Dpm_sim.Meter.sample -> unit) ->
  t ->
  Run.spec ->
  (int, Run.error) result
(** Enqueue a job; returns its id immediately (never blocks on
    execution).  Errors: [Queue_full {retry_after}] at capacity,
    [Shutting_down] once {!shutdown} has begun.  [meter] switches on
    power metering at that resolution (seconds per window); [on_sample]
    then fires live from the worker thread as each window closes — it
    must be thread-safe and must not block for long (it runs inside the
    job's replay). *)

val await : t -> int -> (outcome, Run.error) result
(** Block until the job finishes and consume its outcome (a second
    [await] of the same id is [Protocol_error]).  Job-execution failures
    come back as the job's own typed error. *)

val stats : t -> stats

val shutdown : t -> unit
(** Stop admissions, wait until every admitted job has finished (the
    drain guarantee: nothing accepted is ever dropped), and stop the
    worker pool.  Idempotent; pending {!await}s complete.  Concurrent
    {!submit}s observe [Shutting_down]. *)

(** Line-framed JSON over a Unix or TCP socket.

    Every frame is one JSON object on one line ([\n]-terminated).
    Client ops: [{"op":"submit","spec":<dpm-spec/1>,"meter":<s>?}],
    [{"op":"ping"}], [{"op":"shutdown"}].  Server frames for a submit:
    [{"ok":"accepted","job":N}], then for metered jobs sample frames
    [{"job":N,"scheme":S,"sample":{disk,index,t0,t1,watts}}] as they
    close, then the terminal [{"job":N,"report":<dpm-report/1>}] — or a
    typed error object ({!Run.error_to_json}); a [meter] that is not a
    number is [Protocol_error], and no job is queued.  Floats print with
    [%.17g], so a streamed sample set integrates to the job's energy
    exactly as the in-process sections do.  Ops on one connection are
    handled strictly in order; concurrent load uses parallel
    connections (one handler thread per connection). *)
module Net : sig
  type address = Unix_path of string | Tcp of { host : string; port : int }

  val address_of_string : string -> address
  (** ["host:port"] (port numeric) is TCP; anything else is a Unix
      socket path. *)

  val address_to_string : address -> string

  val serve : ?backlog:int -> t -> address -> unit
  (** Bind, listen and serve until a client sends the [shutdown] op;
      drains the service ({!shutdown}) before returning.  A stale Unix
      socket path is replaced.  SIGPIPE is ignored process-wide: a
      client that hangs up only stops receiving frames, and its job
      still completes.  Raises [Unix.Unix_error] on bind failures. *)

  type client

  val connect : ?retries:int -> address -> (client, Run.error) result
  (** Dial the daemon.  [retries] (default 50) spaced 0.1 s apart absorb
      daemon start-up; failure is [Protocol_error]. *)

  val close : client -> unit

  val ping : client -> (unit, Run.error) result

  val submit :
    ?meter:float ->
    ?on_sample:(scheme:string -> Dpm_sim.Meter.sample -> unit) ->
    client ->
    Run.spec ->
    (int * Dpm_util.Json.t, Run.error) result
  (** Submit one job and block until its terminal frame: the job id and
      its [dpm-report/1] document.  [on_sample] sees each streamed
      sample frame.  A [Queue_full] rejection surfaces as that typed
      error — the caller owns the retry loop. *)

  val shutdown : client -> (int, Run.error) result
  (** Ask the daemon to drain and exit; returns its completed-job
      count. *)
end
