(* Running one catalogue job in-process, exactly as a user would. *)

module Run = Dpm_core.Run
module Sim = Dpm_sim

(* What the daemon attaches to a job: one timeline sink per scheme and,
   with [meter], a power meter on each.  Returns the sinks and the
   function that closes the meters once the job has run. *)
let observe ~meter (cfg : Sim.Config.t) schemes =
  let sinks = List.map (fun s -> (s, Sim.Timeline.sink ())) schemes in
  let meters =
    if not meter then []
    else
      List.map
        (fun (_, sink) ->
          let m =
            Sim.Meter.create ~resolution:Jobs.meter_resolution
              ~specs:cfg.Sim.Config.specs ~fleet:cfg.Sim.Config.fleet ()
          in
          Sim.Meter.attach m sink;
          m)
        sinks
  in
  (sinks, fun () -> List.iter Sim.Meter.finish meters)

(* [Run.exec_all] with the daemon's observers attached. *)
let observed ~meter spec =
  match Run.schemes_of spec with
  | Error e -> (Error e, [])
  | Ok schemes ->
      let sinks, finish = observe ~meter (Run.sim_config spec) schemes in
      let r = Run.exec_all (Run.with_timeline (fun s -> List.assoc_opt s sinks) spec) in
      finish ();
      (r, sinks)

let run ?core (job : Jobs.job) =
  let spec = Jobs.spec ?core job in
  match job.variant with
  | Jobs.Plain | Jobs.Stream -> Run.exec_all spec
  | Jobs.Metered -> fst (observed ~meter:true spec)

(* Run and check against the committed digest; the error says why a job
   counts as failed. *)
let checked ?core digests (job : Jobs.job) =
  match run ?core job with
  | Error e -> Error (job.key ^ ": " ^ Run.error_message e)
  | Ok results -> (
      match Digest.check digests job.key (Digest.of_results results) with
      | Ok () -> Ok results
      | Error m -> Error m)
