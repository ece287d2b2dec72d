(* The traced run (--trace 1): per-layer figures.

   Every job of one round is run twice: once untraced through
   [Run.exec_all], then broken into the same public calls [Run.exec_all]
   makes, each timed as a span and bracketed by [Gc] counters.  The
   broken-down run must reproduce the committed digests bit for bit, or
   the breakdown would be measuring a different program.  A second
   broken-down pass must repeat every per-layer count exactly.  serve-mix
   is traced from the client's frame timestamps, plus in-process runs of
   each distinct job. *)

module Run = Dpm_core.Run
module Experiment = Dpm_core.Experiment
module Scheme = Dpm_core.Scheme
module Sim = Dpm_sim
module Trace = Dpm_trace.Trace
module Generate = Dpm_trace.Generate
module Openloop = Dpm_trace.Openloop
module Compiler = Dpm_compiler
module Json = Dpm_util.Json

(* --- per-layer counters ------------------------------------------------ *)

type count = { mutable calls : int; mutable events : int; mutable words : float }

type ctx = {
  spans : Spans.t;
  mutable job : int;
  counts : (string, count) Hashtbl.t;
  mutable child_words : float ref list;
  mutable top_heap_words : int;
}

let create () =
  {
    spans = Spans.create ();
    job = 0;
    counts = Hashtbl.create 32;
    child_words = [];
    top_heap_words = 0;
  }

(* Minor-heap words allocated so far by everything but the probe.  Minor
   words are exact at any instant; the major counters are only brought
   up to date at collections, so they would not repeat run to run. *)
let words () =
  Gc.minor_words () -. Probe.tick_words.(0)

(* Runs [f] as one call into layer [name]: a span, plus the events it
   handled and the words it allocated itself (nested layer calls keep
   their own words). *)
let layer ctx ?(events = 0) ?events_of name f =
  Spans.with_span ctx.spans ~job:ctx.job name (fun () ->
      let children = ref 0.0 in
      ctx.child_words <- children :: ctx.child_words;
      let w0 = words () in
      let x = f () in
      let total = words () -. w0 in
      ctx.child_words <- List.tl ctx.child_words;
      (match ctx.child_words with
      | parent :: _ -> parent := !parent +. total
      | [] -> ());
      let c =
        match Hashtbl.find_opt ctx.counts name with
        | Some c -> c
        | None ->
            let c = { calls = 0; events = 0; words = 0.0 } in
            Hashtbl.replace ctx.counts name c;
            c
      in
      c.calls <- c.calls + 1;
      c.events <-
        c.events + events
        + (match events_of with Some g -> g x | None -> 0);
      c.words <- c.words +. (total -. !children);
      ctx.top_heap_words <-
        max ctx.top_heap_words (Gc.quick_stat ()).Gc.top_heap_words;
      x)

(* --- breaking a job into its public calls ------------------------------ *)

let get = function Ok x -> x | Error e -> failwith (Run.error_message e)

let replay_layer (setup : Experiment.setup) ~metered =
  if metered then "sim.replay_metered"
  else
    match setup.sim.Sim.Config.sched with
    | Sim.Config.Fcfs -> "sim.replay_fast"
    | Sim.Config.Sstf | Sim.Config.Scan | Sim.Config.Clook
    | Sim.Config.Sstf_remap ->
        "sim.replay_sched"

(* [Experiment.replay_all] over [source], one layer call per replay or
   oracle.  [events] is the number of events one source stream yields. *)
let replay_all ctx (setup : Experiment.setup) ~sink ~events schemes source =
  let metered = sink Scheme.Base <> None in
  let name = replay_layer setup ~metered in
  let replay ?timeline policy s =
    layer ctx ~events name (fun () ->
        Sim.Engine.run_stream ~config:setup.sim ~mode:setup.mode
          ~faults:setup.faults ?timeline ~core:setup.core policy s)
  in
  let oracle f base =
    layer ctx ~events "sim.oracle" (fun () -> f base)
  in
  let base = lazy (replay ?timeline:(sink Scheme.Base) Sim.Policy.base (source ())) in
  List.map
    (fun scheme ->
      let timeline = sink scheme in
      ( scheme,
        match scheme with
        | Scheme.Base -> Lazy.force base
        | Scheme.Tpm -> replay ?timeline (Sim.Policy.tpm setup.sim) (source ())
        | Scheme.Drpm ->
            let s = source () in
            replay ?timeline
              (Sim.Policy.drpm setup.sim ~ndisks:(Trace.Stream.ndisks s))
              s
        | Scheme.Adaptive ->
            let s = source () in
            replay ?timeline
              (Sim.Policy.adaptive setup.sim ~ndisks:(Trace.Stream.ndisks s))
              s
        | Scheme.Itpm ->
            oracle (Sim.Oracle.itpm ~config:setup.sim ?timeline) (Lazy.force base)
        | Scheme.Idrpm ->
            oracle (Sim.Oracle.idrpm ~config:setup.sim ?timeline) (Lazy.force base)
        | Scheme.Cmtpm -> replay ?timeline Sim.Policy.cm_tpm (source ())
        | Scheme.Cmdrpm -> replay ?timeline Sim.Policy.cm_drpm (source ()) ))
    schemes

(* [Pipeline.compile] as its four passes. *)
let compile ctx (setup : Experiment.setup) scheme p plan =
  let sim = setup.sim in
  let specs = sim.Sim.Config.specs and cache_blocks = setup.cache_blocks in
  layer ctx "compiler.compile" (fun () ->
      let activities =
        layer ctx "compiler.access" (fun () ->
            Compiler.Access.of_program_cached ~cache_blocks p plan)
      in
      let exact =
        layer ctx "compiler.estimate" (fun () ->
            Compiler.Estimate.profile ~cache_blocks ~specs p plan)
      in
      let estimate =
        if setup.noise = 0.0 then exact
        else Compiler.Estimate.perturb ~noise:setup.noise ~seed:setup.seed exact
      in
      let dap =
        layer ctx "compiler.dap" (fun () -> Compiler.Dap.build activities estimate)
      in
      layer ctx "compiler.insert" (fun () ->
          fst
            (Compiler.Insertion.insert ~specs
               ~pm_overhead:sim.Sim.Config.pm_call_overhead
               ~pre_lead:sim.Sim.Config.pre_activation_lead
               ~serve_slow:(setup.mode = `Open) scheme p dap estimate)))

(* [Run.exec_all] of a suite-benchmark job ([Experiment.run_all]). *)
let benchmark_job ctx (setup : Experiment.setup) schemes name =
  let bench = Dpm_workloads.Suite.find name in
  let p, plan =
    layer ctx "workloads.build" (fun () -> Experiment.workload bench)
  in
  let p, plan =
    layer ctx "compiler.transform" (fun () ->
        Compiler.Pipeline.transform setup.version p plan)
  in
  let gen_config =
    { Generate.cost = Dpm_ir.Cost.default; cache_blocks = setup.cache_blocks }
  in
  let gen p =
    layer ctx ~events_of:Trace.event_count "trace.gen" (fun () ->
        Generate.run ~config:gen_config p plan)
  in
  let trace = lazy (gen p) in
  let events = lazy (Trace.event_count (Lazy.force trace)) in
  let replay name policy t =
    layer ctx ~events:(Trace.event_count t) name (fun () ->
        Sim.Engine.run_stream ~config:setup.sim ~mode:setup.mode
          ~faults:setup.faults ~core:setup.core policy
          (Trace.Stream.of_trace ~batch:setup.batch t))
  in
  let rname = replay_layer setup ~metered:false in
  let base = lazy (replay rname Sim.Policy.base (Lazy.force trace)) in
  let cm scheme policy =
    let compiled = compile ctx setup scheme p plan in
    replay rname policy (gen compiled)
  in
  List.map
    (fun scheme ->
      ( scheme,
        match scheme with
        | Scheme.Base -> Lazy.force base
        | Scheme.Tpm -> replay rname (Sim.Policy.tpm setup.sim) (Lazy.force trace)
        | Scheme.Drpm ->
            replay rname
              (Sim.Policy.drpm setup.sim ~ndisks:(Dpm_layout.Plan.ndisks plan))
              (Lazy.force trace)
        | Scheme.Adaptive ->
            replay rname
              (Sim.Policy.adaptive setup.sim ~ndisks:(Dpm_layout.Plan.ndisks plan))
              (Lazy.force trace)
        | Scheme.Itpm ->
            layer ctx ~events:(Lazy.force events) "sim.oracle" (fun () ->
                Sim.Oracle.itpm ~config:setup.sim (Lazy.force base))
        | Scheme.Idrpm ->
            layer ctx ~events:(Lazy.force events) "sim.oracle" (fun () ->
                Sim.Oracle.idrpm ~config:setup.sim (Lazy.force base))
        | Scheme.Cmtpm -> cm Compiler.Insertion.Tpm Sim.Policy.cm_tpm
        | Scheme.Cmdrpm -> cm Compiler.Insertion.Drpm Sim.Policy.cm_drpm ))
    schemes

(* Event counts of the committed traces, read once. *)
let trace_events =
  let memo = Hashtbl.create 8 in
  fun path ->
    match Hashtbl.find_opt memo path with
    | Some n -> n
    | None ->
        let n = Trace.event_count (Trace.load path) in
        Hashtbl.replace memo path n;
        n

let load ctx path =
  layer ctx ~events:(trace_events path) "trace.parse" (fun () -> Trace.load path)

(* [Run.exec_all] of a trace-file job ([Run.exec_trace_file]). *)
let trace_file_job ctx (setup : Experiment.setup) ~sink schemes path =
  let source =
    if setup.stream then fun () -> Trace.Stream.of_file ~batch:setup.batch path
    else
      let t = load ctx path in
      fun () -> Trace.Stream.of_trace ~batch:setup.batch t
  in
  replay_all ctx setup ~sink ~events:(trace_events path) schemes source

(* [Run.exec_all] of an open-loop job over trace files
   ([Run.exec_open_loop]). *)
let open_loop_job ctx (setup : Experiment.setup) ~sink schemes load_d sources =
  let thunks =
    Array.of_list
      (List.map
         (fun path ->
           if setup.stream then fun () ->
             Trace.Stream.of_file ~batch:setup.batch path
           else
             let t = lazy (load ctx path) in
             fun () -> Trace.Stream.of_trace ~batch:setup.batch (Lazy.force t))
         sources)
  in
  let plan = Openloop.plan load_d ~nsources:(Array.length thunks) in
  let events =
    Array.fold_left
      (fun n (_, k) -> n + trace_events (List.nth sources k))
      0 plan
  in
  let source () =
    Openloop.merge ~batch:setup.batch
      (Array.to_list plan |> List.map (fun (start, k) -> (start, thunks.(k) ())))
  in
  replay_all ctx setup ~sink ~events schemes source

(* The merge on its own: plan, merge and pull the stream to the end.
   Not part of any job; it times the layer the replays fuse it into. *)
let merge_alone ctx (setup : Experiment.setup) load_d sources =
  let traces = List.map Trace.load sources |> Array.of_list in
  let plan = Openloop.plan load_d ~nsources:(Array.length traces) in
  let events =
    Array.fold_left (fun n (_, k) -> n + Trace.event_count traces.(k)) 0 plan
  in
  layer ctx ~events "trace.merge" (fun () ->
      let s =
        Openloop.merge ~batch:setup.batch
          (Array.to_list plan
          |> List.map (fun (start, k) ->
                 (start, Trace.Stream.of_trace ~batch:setup.batch traces.(k))))
      in
      let rec drain () = match Trace.Stream.next s with Some _ -> drain () | None -> () in
      drain ())

(* The decomposition of one catalogue job; returns its results. *)
let decompose ctx (job : Jobs.job) =
  let spec = Jobs.spec job in
  let _, setup = get (Run.describe spec) in
  let schemes = get (Run.schemes_of spec) in
  let metered = job.variant = Jobs.Metered in
  let sinks, finish =
    if metered then Exec.observe ~meter:true setup.sim schemes
    else ([], ignore)
  in
  let sink s = List.assoc_opt s sinks in
  let results =
    match job.workload with
    | Run.Benchmark name -> benchmark_job ctx setup schemes name
    | Run.Trace_file path -> trace_file_job ctx setup ~sink schemes path
    | Run.Open_loop { load; sources } ->
        open_loop_job ctx setup ~sink schemes load sources
    | Run.Program _ -> invalid_arg "Traced.decompose: in-memory program"
  in
  if metered then layer ctx "sim.meter_finish" finish;
  results

(* --- the per-layer table ------------------------------------------------- *)

(* Every per-layer metric, in BENCHMARK.json order, with its unit. *)
let metric_names =
  [
    ("workloads.build_s", "s");
    ("compiler.transform_s", "s");
    ("compiler.access_s", "s");
    ("compiler.estimate_s", "s");
    ("compiler.compile_s", "s");
    ("trace.gen_s", "s");
    ("trace.gen_events_per_s", "1/s");
    ("trace.gen_words_per_event", "words");
    ("trace.parse_s", "s");
    ("trace.parse_events_per_s", "1/s");
    ("trace.parse_words_per_event", "words");
    ("trace.merge_s", "s");
    ("trace.merge_events_per_s", "1/s");
    ("sim.replay_fast_s", "s");
    ("sim.replay_fast_events_per_s", "1/s");
    ("sim.replay_fast_words_per_event", "words");
    ("sim.replay_sched_s", "s");
    ("sim.replay_sched_events_per_s", "1/s");
    ("sim.replay_sched_words_per_event", "words");
    ("sim.replay_metered_s", "s");
    ("sim.replay_metered_events_per_s", "1/s");
    ("sim.replay_metered_words_per_event", "words");
    ("sim.oracle_s", "s");
    ("sim.oracle_events_per_s", "1/s");
    ("sim.timeline_s", "s");
    ("sim.meter_s", "s");
    ("core.report_s", "s");
    ("core.json_s", "s");
    ("core.glue_s", "s");
    ("service.admit_s", "s");
    ("service.exec_s", "s");
    ("service.overhead_s", "s");
    ("service.rejects", "count");
    ("wire.bytes_per_job", "bytes");
    ("wire.frames_per_job", "count");
    ("generator.late_s", "s");
    ("mem.top_heap_mb", "MB");
    ("tracing.overhead_share", "share");
    ("layers.target_share", "share");
  ]

(* Per layer: self seconds (scaled to the reference speed by each job's
   probe factor), events and words. *)
type totals = { self_s : float; events : int; words : float }

let totals ctx ~factor_of =
  let self = Hashtbl.create 32 in
  List.iter
    (fun ((s : Spans.span), t) ->
      let f = factor_of s.job in
      Hashtbl.replace self s.name
        (t *. f +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
    (Spans.self_times (Spans.all ctx.spans));
  fun name ->
    let c =
      Option.value
        ~default:{ calls = 0; events = 0; words = 0.0 }
        (Hashtbl.find_opt ctx.counts name)
    in
    {
      self_s = Option.value ~default:0.0 (Hashtbl.find_opt self name);
      events = c.events;
      words = c.words;
    }

let counts_signature ctx =
  Hashtbl.fold
    (fun name (c : count) acc ->
      Printf.sprintf "%s calls=%d events=%d words=%.0f" name c.calls c.events
        c.words
      :: acc)
    ctx.counts []
  |> List.sort compare

let div a b = if b = 0.0 then 0.0 else a /. b

(* --- batch workloads --------------------------------------------------- *)

let table2_context results_by_key =
  print_endline "Base vs paper Table 2 (context, not a gate):";
  List.iter
    (fun (b : Dpm_workloads.Suite.spec) ->
      match
        Hashtbl.find_opt results_by_key
          (Printf.sprintf "suite-grid/%s/Orig" b.name)
      with
      | None -> ()
      | Some results -> (
          match List.assoc_opt Scheme.Base results with
          | None -> ()
          | Some (r : Sim.Result.t) ->
              let err x target = 100.0 *. (x -. target) /. target in
              Printf.printf
                "  %-8s energy %9.1f J (%+.1f%%)  time %8.1f s (%+.1f%%)  \
                 requests %6d (%+.1f%%)\n"
                b.name r.energy
                (err r.energy b.base_energy_j)
                r.exec_time
                (err r.exec_time b.exec_time_s)
                (Sim.Result.requests r)
                (err (float (Sim.Result.requests r)) (float b.requests))))
    Dpm_workloads.Suite.all

type pass = {
  ctx : ctx;
  factors : (int, float) Hashtbl.t;  (** Job id -> normalized / host time. *)
  job_s : float;  (** Normalized seconds inside the jobs. *)
  results : (string, (Scheme.t * Sim.Result.t) list) Hashtbl.t;
  errors : string list;
}

(* One broken-down round in seeded order, then (trace-replay) each merge
   on its own. *)
let broken_down_pass ~digests ~seed catalogue =
  let ctx = create () in
  let n = Array.length catalogue in
  let factors = Hashtbl.create 32 and results = Hashtbl.create 32 in
  let job_s = ref 0.0 and errors = ref [] in
  let before = ref (Probe.sample ()) in
  Array.iteri
    (fun id k ->
      let job = catalogue.(k) in
      ctx.job <- id;
      Gc.full_major ();
      let res, norm, raw, after, _ =
        Probe.timed ~before:!before (fun () ->
            Spans.with_span ctx.spans ~job:id ("job " ^ job.Jobs.key) (fun () ->
                decompose ctx job))
      in
      before := after;
      Hashtbl.replace factors id (div norm raw);
      job_s := !job_s +. norm;
      Hashtbl.replace results job.key res;
      match Digest.check digests job.key (Digest.of_results res) with
      | Ok () -> ()
      | Error m -> errors := ("broken-down " ^ m) :: !errors)
    (Jobs.round ~seed ~n 0);
  Array.iteri
    (fun i (job : Jobs.job) ->
      match job.workload with
      | Run.Open_loop { load; sources } ->
          ctx.job <- n + i;
          let _, setup = get (Run.describe (Jobs.spec job)) in
          Gc.full_major ();
          let (), norm, raw, after, _ =
            Probe.timed ~before:!before (fun () ->
                merge_alone ctx setup load sources)
          in
          before := after;
          Hashtbl.replace factors (n + i) (div norm raw)
      | Run.Benchmark _ | Run.Trace_file _ | Run.Program _ -> ())
    catalogue;
  { ctx; factors; job_s = !job_s; results; errors = List.rev !errors }

(* The same round through [Run.exec_all], untraced. *)
let untraced_pass ~digests ~seed catalogue =
  let n = Array.length catalogue in
  let total = ref 0.0 and errors = ref [] in
  let before = ref (Probe.sample ()) in
  Array.iter
    (fun k ->
      Gc.full_major ();
      let res, norm, _, after, _ =
        Probe.timed ~before:!before (fun () -> Exec.checked digests catalogue.(k))
      in
      before := after;
      total := !total +. norm;
      match res with Ok _ -> () | Error m -> errors := m :: !errors)
    (Jobs.round ~seed ~n 0);
  (!total, List.rev !errors)

(* --- output --------------------------------------------------------------- *)

let emit ~attempted ~errors ~checks values =
  List.iter (fun m -> prerr_endline ("perfbench: FAILED " ^ m)) errors;
  let metrics =
    List.map
      (fun (name, unit) ->
        (name, Option.value ~default:0.0 (List.assoc_opt name values), unit))
      metric_names
  in
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-34s %14.6g %s\n" name v unit)
    metrics;
  List.iter
    (fun (what, ok) ->
      Printf.printf "check: %s: %s\n" what (if ok then "ok" else "FAILED"))
    checks;
  let failed = List.length errors + List.length (List.filter (fun (_, ok) -> not ok) checks) in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
              (if Float.is_finite v then v else 0.0)
              unit)
          metrics))

let write_spans_of name seed spans =
  Proc.ensure_scratch ();
  let path = Printf.sprintf "%s/trace-%s-%d.json" Proc.scratch_dir name seed in
  Spans.write_chrome path (Spans.all spans);
  Printf.printf "spans written to %s\n" path

let write_spans name seed ctx = write_spans_of name seed ctx.spans

let front_layers =
  [
    "workloads.build";
    "compiler.transform";
    "compiler.compile";
    "compiler.access";
    "compiler.estimate";
    "compiler.dap";
    "compiler.insert";
    "trace.gen";
  ]

let replay_side_layers =
  [
    "trace.parse";
    "sim.replay_fast";
    "sim.replay_sched";
    "sim.replay_metered";
    "sim.oracle";
    "sim.meter_finish";
  ]

let top_heap_mb ctx =
  float ctx.top_heap_words *. float (Sys.word_size / 8) /. 1048576.0

let batch ~seed w =
  let catalogue, name =
    match w with
    | `Suite_grid -> (Jobs.suite_grid, "suite-grid")
    | `Trace_replay -> (Jobs.trace_replay, "trace-replay")
  in
  let digests = Digest.load Jobs.digests_path in
  (* Read the traces' event counts now, outside every timed job. *)
  List.iter (fun b -> ignore (trace_events (Jobs.trace_path b))) Jobs.benches;
  let untraced_s, e0 = untraced_pass ~digests ~seed catalogue in
  Probe.disable_ticks ();
  let a = broken_down_pass ~digests ~seed catalogue in
  let b = broken_down_pass ~digests ~seed catalogue in
  let factor_of j = Option.value ~default:1.0 (Hashtbl.find_opt a.factors j) in
  let t = totals a.ctx ~factor_of in
  let jobs = float (Array.length catalogue) in
  let sum names = List.fold_left (fun acc n -> acc +. (t n).self_s) 0.0 names in
  let in_jobs = sum (front_layers @ replay_side_layers) in
  let secs n = (t n).self_s /. jobs in
  let rate n = div (float (t n).events) (t n).self_s in
  let wpe n = div (t n).words (float (t n).events) in
  let front = div (sum front_layers) a.job_s in
  let back = div (sum replay_side_layers) a.job_s in
  let target, checks =
    match w with
    | `Suite_grid ->
        ( front,
          [
            ( Printf.sprintf "build + compile + generation >= 80%% of job time (%.1f%%)"
                (100.0 *. front),
              front >= 0.8 );
          ] )
    | `Trace_replay ->
        ( back,
          [
            ("no compile or generation time", sum front_layers = 0.0);
            ( Printf.sprintf
                "parse + merge + replay + oracle + meter >= 80%% of job time \
                 (%.1f%%)"
                (100.0 *. back),
              back >= 0.8 );
          ]
          @ (Array.to_list catalogue
            |> List.filter (fun (j : Jobs.job) ->
                   j.sched = Sim.Config.Fcfs && j.variant = Jobs.Plain)
            |> List.map (fun (j : Jobs.job) ->
                   ( "core=Reference reproduces " ^ j.key,
                     Result.is_ok (Exec.checked ~core:`Reference digests j) ))) )
  in
  let checks =
    checks
    @ [
        ("per-layer counts repeat exactly in a second pass", counts_signature a.ctx = counts_signature b.ctx);
      ]
  in
  if w = `Suite_grid then table2_context a.results;
  let sa = counts_signature a.ctx and sb = counts_signature b.ctx in
  if List.length sa = List.length sb then
    List.iter2
      (fun x y -> if x <> y then Printf.printf "count differs: %s | %s\n" x y)
      sa sb;
  print_endline "per-layer counts (deterministic):";
  List.iter (fun l -> print_endline ("  " ^ l)) (counts_signature a.ctx);
  Printf.printf "job time: untraced %.3f s, broken down %.3f s (normalized)\n"
    untraced_s a.job_s;
  write_spans name seed a.ctx;
  emit
    ~attempted:(3 * Array.length catalogue)
    ~errors:(e0 @ a.errors @ b.errors) ~checks
    [
      ("workloads.build_s", secs "workloads.build");
      ("compiler.transform_s", secs "compiler.transform");
      ("compiler.access_s", secs "compiler.access");
      ("compiler.estimate_s", secs "compiler.estimate");
      ( "compiler.compile_s",
        sum
          [
            "compiler.compile";
            "compiler.access";
            "compiler.estimate";
            "compiler.dap";
            "compiler.insert";
          ]
        /. jobs );
      ("trace.gen_s", secs "trace.gen");
      ("trace.gen_events_per_s", rate "trace.gen");
      ("trace.gen_words_per_event", wpe "trace.gen");
      ("trace.parse_s", secs "trace.parse");
      ("trace.parse_events_per_s", rate "trace.parse");
      ("trace.parse_words_per_event", wpe "trace.parse");
      ("trace.merge_s", secs "trace.merge");
      ("trace.merge_events_per_s", rate "trace.merge");
      ("sim.replay_fast_s", secs "sim.replay_fast");
      ("sim.replay_fast_events_per_s", rate "sim.replay_fast");
      ("sim.replay_fast_words_per_event", wpe "sim.replay_fast");
      ("sim.replay_sched_s", secs "sim.replay_sched");
      ("sim.replay_sched_events_per_s", rate "sim.replay_sched");
      ("sim.replay_sched_words_per_event", wpe "sim.replay_sched");
      ("sim.replay_metered_s", secs "sim.replay_metered");
      ("sim.replay_metered_events_per_s", rate "sim.replay_metered");
      ("sim.replay_metered_words_per_event", wpe "sim.replay_metered");
      ("sim.oracle_s", secs "sim.oracle");
      ("sim.oracle_events_per_s", rate "sim.oracle");
      ("sim.meter_s", secs "sim.meter_finish");
      ("core.glue_s", (untraced_s -. in_jobs) /. jobs);
      ("mem.top_heap_mb", top_heap_mb a.ctx);
      ("tracing.overhead_share", div (a.job_s -. untraced_s) untraced_s);
      ("layers.target_share", target);
    ]

