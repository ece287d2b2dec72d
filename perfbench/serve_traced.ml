(* The traced run of serve-mix: the same open-loop schedule through the
   daemon, broken down from the client's frame timestamps, plus
   in-process runs of every distinct job that price the layers a daemon
   job adds to [Run.exec_all]: timeline sinks, the meter, the report
   and its JSON. *)

module Run = Dpm_core.Run
module Sim = Dpm_sim
module Json = Dpm_util.Json

let reps = 3

(* In-process cost of one distinct job, normalized seconds (median of
   [reps] runs): plain [Run.exec_all]; with the daemon's timeline sinks
   (no meter); with sinks and meters as submitted; building the
   dpm-report/1 document; printing and re-parsing it. *)
type cost = {
  plain : float;
  sinks : float;
  metered : float;
  report : float;
  json : float;
}

let timed f =
  let before = Probe.sample () in
  let x, norm, _, _, _ = Probe.timed ~before f in
  (x, norm)

let cost spans digests (job : Jobs.job) id =
  let spec = Jobs.spec job in
  let check = function
    | Ok results -> Digest.check digests job.key (Digest.of_results results)
    | Error e -> Error (job.key ^ ": " ^ Run.error_message e)
  in
  let errors = ref [] in
  let note = function Ok () -> () | Error m -> errors := m :: !errors in
  let once () =
    let span name f = Spans.with_span spans ~job:id name (fun () -> timed f) in
    let r, plain = span "core.exec_all" (fun () -> Run.exec_all spec) in
    note (check r);
    let (r, sinks), with_timelines =
      span "sim.timeline" (fun () -> Exec.observed ~meter:false spec)
    in
    note (check r);
    let metered =
      if job.variant = Jobs.Metered then (
        let (r, _), t =
          span "sim.meter" (fun () -> Exec.observed ~meter:true spec)
        in
        note (check r);
        t)
      else with_timelines
    in
    let results = match r with Ok r -> r | Error _ -> [] in
    let label, setup =
      match Run.describe spec with
      | Ok x -> x
      | Error e -> failwith (Run.error_message e)
    in
    let doc, report =
      span "core.report" (fun () ->
          Dpm_core.Report.document ~label ~mode:setup.Dpm_core.Experiment.mode
            ~version:setup.version ~faults:setup.faults ~sim:setup.sim
            ~timeline_of:(fun s -> Sim.Timeline.contents (List.assoc s sinks))
            results)
    in
    let _, json =
      span "core.json" (fun () -> Json.parse_string (Json.to_string doc))
    in
    { plain; sinks = with_timelines; metered; report; json }
  in
  let runs = List.init reps (fun _ -> once ()) in
  let med f = Stats.median (Array.of_list (List.map f runs)) in
  ( {
      plain = med (fun c -> c.plain);
      sinks = med (fun c -> c.sinks);
      metered = med (fun c -> c.metered);
      report = med (fun c -> c.report);
      json = med (fun c -> c.json);
    },
    List.rev !errors )

let run ~seed ~seconds ~dpmsim =
  Probe.disable_ticks ();
  let spans = Spans.create () in
  let digests = Digest.load Jobs.digests_path in
  let frames = Serve.frames () in
  let due =
    Jobs.arrivals ~seed ~rate:Serve.rate ~seconds ~cycle:Jobs.serve_cycle_len
  in
  let order = Jobs.serve_order ~seed ~count:(Array.length due) in
  Proc.ensure_scratch ();
  let socket =
    Printf.sprintf "%s/serve-traced-%d.sock" Proc.scratch_dir (Unix.getpid ())
  in
  let client = Serve.start ~exe:dpmsim ~socket ~digests ~frames in
  let _, records, probes = Serve.drive client ~frames ~due ~order in
  ignore (Serve.stop client);
  let count = Array.length records in
  let errors =
    Array.to_list records
    |> List.filter_map (fun (r : Serve.job_record) ->
           match Serve.check_exchange digests r.key r.ex with
           | Ok () -> None
           | Error m -> Some m)
  in
  (* Client-side spans: due -> report, with admission and execution. *)
  Array.iteri
    (fun i (r : Serve.job_record) ->
      let parent =
        Spans.add spans ~job:i ("job " ^ r.key) ~start:r.due ~stop:r.ex.finished
      in
      ignore
        (Spans.add spans ~job:i ~parent "service.admit" ~start:r.ex.sent
           ~stop:r.ex.accepted);
      ignore
        (Spans.add spans ~job:i ~parent "service.exec" ~start:r.ex.accepted
           ~stop:r.ex.finished))
    records;
  let speed r = Serve.normalized_latency probes r /. Serve.latency r in
  let norm r x = x *. speed r in
  let med xs = Stats.median (Array.of_list xs) in
  let all f = Array.to_list (Array.map f records) in
  let admit = med (all (fun r -> norm r (r.ex.accepted -. r.ex.sent))) in
  let exec = med (all (fun r -> norm r (r.ex.finished -. r.ex.accepted))) in
  (* The daemon runs one job at a time in admission order, so a job's
     service starts when it is admitted or when the job admitted before
     it reports, whichever is later. *)
  let by_admission = Array.init count Fun.id in
  Array.sort
    (fun a b -> compare records.(a).ex.accepted records.(b).ex.accepted)
    by_admission;
  let service = Array.make count 0.0 in
  ignore
    (Array.fold_left
       (fun prev_done i ->
         let r = records.(i) in
         let begins = Float.max r.ex.accepted prev_done in
         service.(i) <- norm r (r.ex.finished -. begins);
         r.ex.finished)
       neg_infinity by_admission);
  (* In-process prices of every distinct job. *)
  let costs = Hashtbl.create 32 and cost_errors = ref [] in
  Array.iteri
    (fun i (job : Jobs.job) ->
      let c, e = cost spans digests job (count + i) in
      Hashtbl.replace costs job.key c;
      cost_errors := !cost_errors @ e)
    Jobs.serve_mix;
  let kinds = Array.to_list Jobs.serve_mix in
  let mean f l = List.fold_left (fun a x -> a +. f x) 0.0 l /. float (List.length l) in
  let cost_of (j : Jobs.job) = Hashtbl.find costs j.key in
  let timeline = mean (fun j -> let c = cost_of j in c.sinks -. c.plain) kinds in
  let metered_kinds = List.filter (fun (j : Jobs.job) -> j.variant = Jobs.Metered) kinds in
  let meter = mean (fun j -> let c = cost_of j in c.metered -. c.sinks) metered_kinds in
  let report = mean (fun j -> (cost_of j).report) kinds in
  let json = mean (fun j -> (cost_of j).json) kinds in
  let overhead =
    med
      (List.init count (fun i ->
           let c = Hashtbl.find costs records.(i).key in
           service.(i) -. (c.metered +. c.report +. c.json)))
  in
  let trace_kinds =
    List.filter
      (fun (j : Jobs.job) ->
        j.variant = Jobs.Plain
        && match j.workload with Run.Trace_file _ -> true | _ -> false)
      kinds
  in
  let observed = List.fold_left (fun a j -> let c = cost_of j in a +. (c.sinks -. c.plain) +. c.report) 0.0 trace_kinds in
  let whole = List.fold_left (fun a j -> let c = cost_of j in a +. c.sinks +. c.report) 0.0 trace_kinds in
  let share = observed /. whole in
  let rejects = Array.fold_left (fun n (r : Serve.job_record) -> if r.ex.rejected then n + 1 else n) 0 records in
  let per_job f = float (Array.fold_left (fun n r -> n + f r) 0 records) /. float count in
  Traced.write_spans_of "serve-mix" seed spans;
  Printf.printf "serve-mix traced: %d jobs, %d idle-time probe samples\n" count
    (Array.length probes);
  Traced.emit ~attempted:(count + (reps * 4 * List.length kinds))
    ~errors:(errors @ !cost_errors)
    ~checks:
      [
        ( Printf.sprintf "timeline + report >= half of trace-file job time (%.1f%%)" (100.0 *. share),
          share >= 0.5 );
        ("no queue-full rejections", rejects = 0);
      ]
    [
      ("sim.timeline_s", timeline);
      ("sim.meter_s", meter);
      ("core.report_s", report);
      ("core.json_s", json);
      ("service.admit_s", admit);
      ("service.exec_s", exec);
      ("service.overhead_s", overhead);
      ("service.rejects", float rejects);
      ("wire.bytes_per_job", per_job (fun r -> r.ex.bytes));
      ("wire.frames_per_job", per_job (fun r -> r.ex.frames));
      ("generator.late_s", med (all Serve.lateness));
      ("mem.top_heap_mb", float (Gc.quick_stat ()).Gc.top_heap_words *. float (Sys.word_size / 8) /. 1048576.0);
      ("layers.target_share", share);
    ]
