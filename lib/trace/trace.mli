(** Trace containers and bounded-memory trace streams.

    A trace is the ordered event stream of one application run together
    with the subsystem metadata the simulator needs (program name, disk
    count).  Traces can be saved to and reloaded from a line-oriented text
    format, mirroring the externally-provided trace files of the paper's
    setup.

    There is one representation between trace producers and the
    simulator: the structure-of-arrays column chunk ({!Stream.Chunk}).
    [t] is the fully materialized form — the whole run in one exactly
    sized column store — which the generator fills ({!build}) and
    whole-trace tools (Table 2 counts, {!without_pm}, {!save}) read;
    {!events} decodes it to records on demand.  The replay engine
    consumes {!Stream.t}, a pull of chunks: {!Stream.of_trace} hands out
    zero-copy views of a trace's store, and {!Stream.of_file} parses a
    trace file chunk by chunk, so a file replays in O(batch) trace
    memory. *)

exception Parse_error of string
(** Malformed trace file; the message carries [path:line:] context. *)

val max_disks : int
(** 4096: the largest disk count a trace header or {!make} accepts, so
    a hostile header cannot make a replay size per-disk state without
    bound.  Disk ids at or above it are rejected by every reader. *)

type t
(** Abstract: construct with {!make} (or {!load}), inspect through the
    accessors below. *)

type trace = t
(** Alias for referring to the materialized type where [t] is shadowed
    (notably inside {!Stream}). *)

val make :
  ?tail_think:float -> program:string -> ndisks:int -> Request.event list -> t
(** Raises [Invalid_argument] unless the trace is replayable: [ndisks]
    in [1, max_disks], a finite tail >= 0, and every row passing the
    check the file reader applies too — a finite think time >= 0, an
    IO's disk in [0, ndisks) with block and bytes >= 0, a directive's
    disk in [0, ndisks) and a [Set_rpm] level >= 0 (a level above a
    disk's top still clamps at replay). *)

val build :
  program:string -> ndisks:int -> (emit:(Request.event -> unit) -> float) -> t
(** [build ~program ~ndisks produce] runs the push-style producer
    [produce ~emit] once and keeps every emitted row, in order, in one
    exactly sized column store; [produce]'s return value is the tail
    think time.  Rows are encoded as they are emitted (no event list is
    built) and validated as {!make} validates them: for the same events
    and tail, the result equals [make ~tail_think ~program ~ndisks
    events]. *)

val program : t -> string
val ndisks : t -> int

val tail_think : t -> float
(** Compute time after the last event completes, seconds. *)

val events : t -> Request.event array
(** The rows decoded to records (a fresh array on every call). *)

val event_count : t -> int

val io_count : t -> int
(** Number of I/O requests (Table 2 "Num of Disk Reqs"). *)

val pm_count : t -> int
val total_bytes : t -> int
val total_think : t -> float
(** Sum of think times including the tail: the pure-compute part of the
    run. *)

val io_events : t -> Request.io list
(** In order, directives skipped. *)

val disks_used : t -> int list
(** Sorted list of disks receiving at least one request. *)

val without_pm : t -> t
(** Drops directives, folding their think time into the next event so the
    compute timeline is preserved. *)

val save : t -> string -> unit
(** Writes header lines ([# program=... ndisks=...]) then one event per
    line. *)

val load : string -> t
(** Inverse of {!save}: materializes {!Stream.of_file}.  Raises
    {!Parse_error} (with file/line context) on malformed files. *)

(** Pull-based, batched request streams.

    A stream is one pull of successive non-empty {!Chunk.t}s (bounded
    by {!batch} rows) with the stream-level metadata — {!program},
    {!ndisks}, and (once known) {!tail_think} — available alongside.
    Chunk boundaries are an implementation detail: consumers that fold
    each chunk row by row in order compute exactly what they would over
    the whole trace, so replays are byte-identical at any batch size.

    A consumer reads a chunk fully before it pulls the same stream
    again: {!of_trace} hands out views of the trace's store, while
    {!of_file} and the open-loop merge refill one buffer in place. *)
module Stream : sig
  (** Structure-of-arrays event chunks — the one representation between
      trace producers and the simulator.

      A chunk stores up to [capacity] events as parallel Bigarray
      columns: [think] is a [float64] column (reads are unboxed in the
      consumer's arithmetic) and the rest are native-[int] columns.  The
      per-event [tag] encodes the [Request.event] constructor; [disk]
      doubles as a directive's disk, and [block] as the [Set_rpm] level;
      the columns a directive does not use hold 0.
      The record is exposed so the specialized replay loop can index the
      columns directly ([Bigarray.Array1.unsafe_get] compiles to a plain
      load when the element kind is statically known); treat the fields
      as read-only outside this library and mutate through
      {!Chunk.push}/{!Chunk.push_row}/{!Chunk.set}/{!Chunk.clear}. *)
  module Chunk : sig
    type floats =
      (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

    type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

    type t = {
      mutable len : int;  (** Events currently stored; indices [0..len-1]. *)
      think : floats;
      tag : ints;  (** One of the [tag_*] values below. *)
      disk : ints;  (** IO disk, or the directive's disk. *)
      block : ints;  (** IO block, or the [Set_rpm] level. *)
      bytes : ints;
      nest : ints;
      iter : ints;
    }

    val tag_read : int
    val tag_write : int
    val tag_spin_down : int
    val tag_spin_up : int
    val tag_set_rpm : int

    val is_io_tag : int -> bool
    (** True for {!tag_read}/{!tag_write}. *)

    val create : int -> t
    (** Empty chunk with the given capacity (raises [Invalid_argument]
        if non-positive). *)

    val capacity : t -> int
    val length : t -> int

    val clear : t -> unit
    (** Reset to empty; the columns are reused in place. *)

    val set : t -> int -> Request.event -> unit
    (** Encode one event at an index (unchecked; use {!push} to
        append). *)

    val push : t -> Request.event -> unit
    (** Append one event; raises [Invalid_argument] when full. *)

    val push_row : t -> t -> int -> think:float -> unit
    (** [push_row dst src i ~think] appends row [i] of [src] to [dst]
        with its think time replaced; raises [Invalid_argument] when
        [dst] is full. *)

    val get : t -> int -> Request.event
    (** Decode the event at an index (allocates the record); raises
        [Invalid_argument] out of bounds.  [get (push c e) = e] for
        every event — the encoding is lossless. *)

    val think : t -> int -> float
    val tag : t -> int -> int
    val disk : t -> int -> int
    val block : t -> int -> int
    val bytes : t -> int -> int
    val nest : t -> int -> int
    val iter : t -> int -> int

    val of_events : Request.event array -> t
    val to_events : t -> Request.event array
  end

  type nonrec t

  val default_batch : int
  (** 4096 events per chunk. *)

  val make :
    ?batch:int ->
    tail:float Lazy.t ->
    nblocks:int Lazy.t ->
    program:string ->
    ndisks:int ->
    (unit -> Chunk.t option) ->
    t
  (** Wrap a pull of chunks ([None], or an empty chunk, ends the
      stream).  [tail] is forced only once it is a value or the stream
      is exhausted, so a producer that learns its tail at exhaustion
      passes a suspension that reads it then.  [nblocks] is forced only
      by consumers that need the block-address space up front (the
      fault planner). *)

  val of_trace : ?batch:int -> trace -> t
  (** Zero-copy views of a trace's column store.  [tail_think] and
      [nblocks] come for free. *)

  val of_file : ?batch:int -> string -> t
  (** Incremental parse of the {!save} line format into one chunk,
      refilled in place.  The header is read eagerly (so metadata is
      available immediately); events are parsed chunk by chunk on
      demand.  Raises {!Parse_error} with [path:line:] context on a
      malformed header or event line, and on any header or row {!make}
      would reject.  [nblocks] re-reads the file when forced. *)

  val to_trace : t -> trace
  (** Drain the stream into a materialized trace (validated like
      {!make}). *)

  val next_soa : t -> Chunk.t option
  (** Next non-empty chunk, or [None] once exhausted (and forever
      after — the exhaustion latch makes repeated calls safe).  The
      chunk may be a buffer the stream refills on the following pull —
      read it before pulling again. *)

  val iter_rows : (Chunk.t -> int -> unit) -> t -> unit
  (** Drain the stream, applying [f chunk i] to every row in order. *)

  val next : t -> Request.event array option
  (** {!next_soa} decoded to records: a view for readers outside this
      library (tests, benchmarks); the simulator reads rows. *)

  val iter : (Request.event -> unit) -> t -> unit
  (** Drain the stream, applying [f] to every decoded event in order. *)

  val program : t -> string
  val ndisks : t -> int
  val batch : t -> int

  val nblocks : t -> int
  (** Highest IO block number + 1 (forces the lazy scan). *)

  val tail_think : t -> float
  (** Raises [Invalid_argument] if the stream's tail is not yet known —
      for an open-loop merge that is before exhaustion. *)
end
