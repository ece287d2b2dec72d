module Stream = Dpm_trace.Trace.Stream
module Chunk = Stream.Chunk

type mode = [ `Open | `Closed ]

let record_replay (result : Result.t) =
  let add = Dpm_util.Telemetry.(add global) in
  add "sim.requests" (Result.requests result);
  add "sim.runs" 1;
  let f = result.Result.faults in
  if f.Result.read_retries > 0 then
    add "sim.fault.retries" f.Result.read_retries;
  if f.Result.remaps > 0 then add "sim.fault.remaps" f.Result.remaps;
  if f.Result.spin_up_recoveries > 0 then
    add "sim.fault.spinup_recoveries" f.Result.spin_up_recoveries;
  if f.Result.redirects > 0 then add "sim.fault.redirects" f.Result.redirects

type core = [ `Fast | `Reference ]

(* Fault setup, replay observation and the [sim.replay] span around one
   replay body. *)
let observed ~config ~mode ~faults ~timeline ~ndisks ~nblocks
    ~program replay (policy : Policy.t) input =
  let fault = Fault.init faults ~ndisks ~nblocks in
  let obs = Observe.make () in
  let result =
    Dpm_util.Telemetry.span
      ~args:(fun () -> [ ("scheme", policy.Policy.name); ("program", program) ])
      Dpm_util.Telemetry.global "sim.replay"
      (fun () -> replay ~config ~mode ~fault ~timeline ~obs policy input)
  in
  Observe.flush obs result;
  record_replay result;
  result

let run_stream ?(config = Config.default) ?(mode = `Open)
    ?(faults = Fault.none) ?timeline ?(core = `Fast) policy stream =
  let replay =
    match core with `Fast -> Fastpath.replay | `Reference -> Sched.replay
  in
  observed ~config ~mode ~faults ~timeline
    ~ndisks:(Stream.ndisks stream)
    ~nblocks:(lazy (Stream.nblocks stream))
    ~program:(Stream.program stream) replay policy stream

let run ?config ?mode ?faults ?timeline ?core policy trace =
  run_stream ?config ?mode ?faults ?timeline ?core policy
    (Stream.of_trace trace)

(* --- Multiprogrammed replay --- *)

type app = {
  stream : Stream.t;
  mutable chunk : Chunk.t;
  mutable idx : int;  (** next unprocessed row in [chunk] *)
  clock : float ref;
  mutable done_ : bool;
}

let program_of streams = String.concat "+" (List.map Stream.program streams)

(* Each app pulls chunks from its own stream and advances on its own
   clock through the FCFS reference body ({!Sched.fcfs_step}), pulling
   again only once its chunk is fully read. *)
let replay_many ~config ~mode ~fault ~timeline ~obs policy streams =
  let ndisks = Stream.ndisks (List.hd streams) in
  let s = Sched.create ~config ~mode ~fault ~timeline ~obs policy ~ndisks in
  let no_rows = Chunk.create 1 in
  let apps =
    List.map
      (fun stream ->
        { stream; chunk = no_rows; idx = 0; clock = ref 0.0; done_ = false })
      streams
  in
  (* Time at which an app's next event becomes runnable, pulling the
     next chunk on demand.  Exhaustion is discovered here: the tail think
     is folded into the app clock exactly once, as the materialized path
     did after its last event. *)
  let rec next_time app =
    if app.done_ then infinity
    else if app.idx < Chunk.length app.chunk then
      !(app.clock) +. Chunk.think app.chunk app.idx
    else
      match Stream.next_soa app.stream with
      | Some chunk ->
          app.chunk <- chunk;
          app.idx <- 0;
          next_time app
      | None ->
          app.done_ <- true;
          app.chunk <- no_rows;
          app.clock := !(app.clock) +. Stream.tail_think app.stream;
          infinity
  in
  (* At every step the app with the earliest next event proceeds; ties
     go to the earlier app in list order. *)
  let rec drive () =
    let best =
      List.fold_left
        (fun best app ->
          if app.done_ then best
          else begin
            let t = next_time app in
            if app.done_ then best
            else
              match best with
              | Some (_, bt) when bt <= t -> best
              | _ -> Some (app, t)
          end)
        None apps
    in
    match best with
    | None -> ()
    | Some (app, _) ->
        let i = app.idx in
        app.idx <- i + 1;
        Sched.fcfs_step s app.clock app.chunk i;
        drive ()
  in
  drive ();
  Sched.finish s ~program:(program_of streams)
    ~clock:(List.fold_left (fun acc a -> Float.max acc !(a.clock)) 0.0 apps)

let run_many_stream ?(config = Config.default) ?(mode = `Open)
    ?(faults = Fault.none) ?timeline policy streams =
  let ndisks =
    match streams with
    | [] -> invalid_arg "Engine.run_many: no traces"
    | s :: _ -> Stream.ndisks s
  in
  (* Deferred-dispatch disciplines interleave with the per-app clocks in
     ways the merge does not model; multiprogrammed replay is
     FCFS-only. *)
  if config.Config.sched <> Config.Fcfs then
    invalid_arg "Engine.run_many: only the FCFS scheduler is supported";
  if List.exists (fun s -> Stream.ndisks s <> ndisks) streams then
    invalid_arg "Engine.run_many: disk counts differ";
  let nblocks =
    lazy (List.fold_left (fun acc s -> max acc (Stream.nblocks s)) 0 streams)
  in
  observed ~config ~mode ~faults ~timeline ~ndisks ~nblocks
    ~program:(program_of streams) replay_many policy streams

let run_many ?config ?mode ?faults ?timeline policy traces =
  run_many_stream ?config ?mode ?faults ?timeline policy
    (List.map Stream.of_trace traces)
