module Sim = Dpm_sim
module Compiler = Dpm_compiler
module Trace = Dpm_trace
module Workloads = Dpm_workloads
module Telemetry = Dpm_util.Telemetry

type setup = {
  sim : Sim.Config.t;
  mode : Sim.Engine.mode;
  cache_blocks : int;
  noise : float;
  seed : int;
  version : Compiler.Pipeline.version;
  faults : Sim.Fault.spec;
  stream : bool;
  batch : int;
  core : Sim.Engine.core;
}

let make_setup ?(sim = Sim.Config.default) ?(mode = `Open)
    ?(cache_blocks = Workloads.Suite.cache_blocks) ?(noise = 0.0) ?(seed = 42)
    ?(version = Compiler.Pipeline.Orig) ?(faults = Sim.Fault.none)
    ?(stream = false) ?(batch = Trace.Trace.Stream.default_batch)
    ?(core = `Fast) () =
  { sim; mode; cache_blocks; noise; seed; version; faults; stream; batch; core }

let default_setup = make_setup ()

let gen_config (setup : setup) =
  {
    Trace.Generate.cost = Dpm_ir.Cost.default;
    cache_blocks = setup.cache_blocks;
  }

let transformed setup p plan =
  Telemetry.span
    ~args:(fun () ->
      [
        ("program", p.Dpm_ir.Program.name);
        ("version", Compiler.Pipeline.version_name setup.version);
      ])
    Telemetry.global "compile.transform"
    (fun () -> Compiler.Pipeline.transform setup.version p plan)

(* The one walk of a job's program: the Base trace, the analysis and
   every CM trace derive from its log. *)
let walk setup p plan =
  Trace.Walk.log ~cost:Dpm_ir.Cost.default ~cache_blocks:setup.cache_blocks p
    plan

(* The scheme-free half of a CM compile: one per program and plan,
   shared by CMTPM and CMDRPM. *)
let analyze setup log =
  Compiler.Pipeline.analyze ~noise:setup.noise ~seed:setup.seed
    ~specs:setup.sim.Sim.Config.specs log

let compile_cm setup scheme ischeme analysis =
  Telemetry.span
    ~args:(fun () ->
      let p = analysis.Compiler.Pipeline.source in
      [ ("program", p.Dpm_ir.Program.name); ("scheme", Scheme.name scheme) ])
    Telemetry.global "compile.cm"
    (fun () ->
      Compiler.Pipeline.insert ~scheme:ischeme
        ~pm_overhead:setup.sim.Sim.Config.pm_call_overhead
        ~pre_lead:setup.sim.Sim.Config.pre_activation_lead
        ~serve_slow:(match setup.mode with `Open -> true | `Closed -> false)
        ~specs:setup.sim.Sim.Config.specs analysis)

(* [whole] runs once, on the first call; every call slices the shared
   trace. *)
let shared setup whole =
  let trace = lazy (whole ()) in
  fun () -> Trace.Trace.Stream.of_trace ~batch:setup.batch (Lazy.force trace)

(* A trace file is read chunk by chunk per replay under [setup.stream]
   (O(batch) trace memory), else loaded once and shared. *)
let source setup ~fresh ~whole =
  if setup.stream then fun () -> fresh ~batch:setup.batch
  else shared setup whole

let generated setup p plan =
  shared setup (fun () -> Trace.Generate.run ~config:(gen_config setup) p plan)

(* The one per-scheme body.  Every replay consumes a fresh stream from
   [source]; [cm] yields the stream a compiler-managed scheme replays;
   the oracle schemes derive from the Base replay, which runs at most
   once. *)
let replay_schemes ?timeline ~setup ~schemes ~args ~cm source =
  let sink_for scheme =
    match timeline with None -> None | Some f -> f scheme
  in
  let replay scheme policy_of stream =
    Sim.Engine.run_stream ~config:setup.sim ~mode:setup.mode
      ~faults:setup.faults ?timeline:(sink_for scheme) ~core:setup.core
      (policy_of (Trace.Trace.Stream.ndisks stream))
      stream
  in
  let base = lazy (replay Scheme.Base (fun _ -> Sim.Policy.base) (source ())) in
  List.map
    (fun scheme ->
      let result =
        Telemetry.span
          ~args:(fun () -> ("scheme", Scheme.name scheme) :: args)
          Telemetry.global "experiment.scheme"
        @@ fun () ->
        match scheme with
        | Scheme.Base -> Lazy.force base
        | Scheme.Tpm ->
            replay scheme (fun _ -> Sim.Policy.tpm setup.sim) (source ())
        | Scheme.Drpm ->
            replay scheme
              (fun ndisks -> Sim.Policy.drpm setup.sim ~ndisks)
              (source ())
        | Scheme.Adaptive ->
            (* A fresh policy per replay: the controller's learned state
               must not leak across runs (share-nothing determinism). *)
            replay scheme
              (fun ndisks -> Sim.Policy.adaptive setup.sim ~ndisks)
              (source ())
        | Scheme.Itpm ->
            Sim.Oracle.itpm ~config:setup.sim ?timeline:(sink_for scheme)
              (Lazy.force base)
        | Scheme.Idrpm ->
            Sim.Oracle.idrpm ~config:setup.sim ?timeline:(sink_for scheme)
              (Lazy.force base)
        | Scheme.Cmtpm ->
            replay scheme
              (fun _ -> Sim.Policy.cm_tpm)
              (cm scheme Compiler.Insertion.Tpm)
        | Scheme.Cmdrpm ->
            replay scheme
              (fun _ -> Sim.Policy.cm_drpm)
              (cm scheme Compiler.Insertion.Drpm)
      in
      (scheme, result))
    schemes

let run_all ?(setup = default_setup) ?timeline ?(schemes = Scheme.all) p plan =
  let p, plan = transformed setup p plan in
  let log = lazy (walk setup p plan) in
  let base = shared setup (fun () -> Trace.Generate.of_log (Lazy.force log)) in
  let analysis = lazy (analyze setup (Lazy.force log)) in
  (* A compile that inserts no call replays the Base trace itself. *)
  let cm scheme ischeme =
    let compiled = compile_cm setup scheme ischeme (Lazy.force analysis) in
    let points = compiled.Compiler.Pipeline.points in
    if Array.for_all (fun pts -> pts = []) points then base ()
    else
      Trace.Trace.Stream.of_trace ~batch:setup.batch
        (Trace.Generate.of_log (Trace.Walk.splice (Lazy.force log) points))
  in
  replay_schemes ?timeline ~setup ~schemes
    ~args:[ ("program", p.Dpm_ir.Program.name) ]
    ~cm base

(* CM schemes replay whatever directives the external trace embeds. *)
let replay_all ?(setup = default_setup) ?timeline ?(schemes = Scheme.all)
    source =
  replay_schemes ?timeline ~setup ~schemes ~args:[]
    ~cm:(fun _ _ -> source ())
    source

let run ?setup ?timeline scheme p plan =
  let timeline = Option.map (fun sink _scheme -> Some sink) timeline in
  match run_all ?setup ?timeline ~schemes:[ scheme ] p plan with
  | [ (_, r) ] -> r
  | _ -> assert false

let overlap (a0, a1) (b0, b1) = min a1 b1 -. max a0 b0

let misprediction_pct ?(setup = default_setup) p plan =
  let p, plan = transformed setup p plan in
  let log = walk setup p plan in
  let trace = Trace.Generate.of_log log in
  let base =
    Sim.Engine.run ~config:setup.sim ~mode:setup.mode ~faults:setup.faults
      ~core:setup.core Sim.Policy.base trace
  in
  let compiled =
    compile_cm setup Scheme.Cmdrpm Compiler.Insertion.Drpm (analyze setup log)
  in
  let top = Dpm_disk.Rpm.max_level setup.sim.Sim.Config.specs in
  (* Decisions are anchored at code positions; place them on the actual
     timeline through the exact profile so that only the *speed* choice
     (made from the noisy estimate) is judged, as in the paper. *)
  let exact = compiled.Compiler.Pipeline.profile in
  let actual_window (w : Compiler.Dap.window) =
    let t0 =
      Compiler.Estimate.iteration_start exact ~item:w.Compiler.Dap.start_item
        ~ordinal:w.Compiler.Dap.start_ord
    in
    let nitems = Array.length exact.Compiler.Estimate.starts in
    let t1 =
      if
        w.Compiler.Dap.end_item >= nitems
        || w.Compiler.Dap.end_ord
           >= Array.length exact.Compiler.Estimate.starts.(w.Compiler.Dap.end_item)
      then exact.Compiler.Estimate.total
      else
        Compiler.Estimate.iteration_start exact ~item:w.Compiler.Dap.end_item
          ~ordinal:w.Compiler.Dap.end_ord
    in
    (t0, t1)
  in
  (* Only DAP-scale idle periods are judged: the oracle also exploits
     sub-iteration fragments no compiler placement can express, and
     counting those would measure granularity, not prediction quality.
     For every decision the compiler took, its speed is compared with the
     speed an oracle knowing the *actual* gap length (from the Base
     replay) would pick for the same context; idle periods the oracle
     would exploit but the compiler did not act on count as mispredicted
     as well. *)
  let min_gap = 1.0 in
  let specs = setup.sim.Sim.Config.specs in
  let total = ref 0 and wrong = ref 0 in
  for disk = 0 to Trace.Trace.ndisks trace - 1 do
    let oracle_gaps = Sim.Oracle.gap_plans ~config:setup.sim base ~disk in
    let cm =
      List.filter
        (fun (d : Compiler.Insertion.decision) ->
          d.disk = disk
          &&
          let t0, t1 = actual_window d.window in
          t1 -. t0 >= min_gap)
        compiled.Compiler.Pipeline.decisions
    in
    let matched = Hashtbl.create 8 in
    List.iter
      (fun (d : Compiler.Insertion.decision) ->
        incr total;
        let win = actual_window d.window in
        (* The actual idle period this decision lands in. *)
        let best = ref None in
        List.iteri
          (fun i ((lo, hi), _) ->
            let ov = overlap win (lo, hi) in
            if ov > 0.0 then
              match !best with
              | Some (_, bov) when bov >= ov -> ()
              | _ -> best := Some (i, ov))
          oracle_gaps;
        match !best with
        | None -> incr wrong (* acted on idleness that never materialized *)
        | Some (i, _) ->
            Hashtbl.replace matched i ();
            let (lo, hi), _ = List.nth oracle_gaps i in
            let reference =
              Dpm_disk.Power.best_gap_plan specs ~from_level:d.from_level
                ~to_level:d.to_level (hi -. lo)
            in
            if
              d.plan.Dpm_disk.Power.level
              <> reference.Dpm_disk.Power.level
            then incr wrong)
      cm;
    (* Exploitable idle periods the compiler missed entirely. *)
    List.iteri
      (fun i ((lo, hi), (oplan : Dpm_disk.Power.gap_plan)) ->
        if
          (not (Hashtbl.mem matched i))
          && hi -. lo >= min_gap
          && oplan.Dpm_disk.Power.level < top
        then begin
          incr total;
          incr wrong
        end)
      oracle_gaps
  done;
  if !total = 0 then 0.0
  else 100.0 *. float_of_int !wrong /. float_of_int !total

let workload spec =
  Telemetry.span
    ~args:(fun () -> [ ("workload", spec.Workloads.Suite.name) ])
    Telemetry.global "workload.build" (fun () ->
      let p = Workloads.Suite.program spec in
      let ndisks =
        (* The subsystem is as large as the default stripe factor. *)
        Dpm_layout.Striping.default.Dpm_layout.Striping.stripe_factor
      in
      let plan = Workloads.Suite.default_plan ~ndisks p in
      let calibrated =
        Workloads.Suite.calibrate ~specs:Sim.Config.default.Sim.Config.specs
          ~target_exec:spec.Workloads.Suite.exec_time_s p plan
      in
      (calibrated, plan))
