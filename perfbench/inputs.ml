(* The committed inputs of trace-replay and serve-mix: one trace per
   suite benchmark, generated from its CMDRPM-compiled program with the
   suite's 192-block buffer cache, so the compiler-managed schemes replay
   real directives.  (dpmsim trace uses the generator's 1024-block
   default and gives different traces.)  Committed rather than built in
   set-up, so that set-up time is file I/O only and front-half changes
   cannot move it. *)

module Suite = Dpm_workloads.Suite

let trace_of (b : Suite.spec) =
  let setup = Dpm_core.Experiment.make_setup ~noise:b.noise () in
  let sim = setup.Dpm_core.Experiment.sim in
  let p, plan = Dpm_core.Experiment.workload b in
  let compiled =
    Dpm_compiler.Pipeline.compile ~scheme:Dpm_compiler.Insertion.Drpm
      ~noise:b.noise ~seed:setup.Dpm_core.Experiment.seed
      ~cache_blocks:Suite.cache_blocks
      ~pm_overhead:sim.Dpm_sim.Config.pm_call_overhead
      ~pre_lead:sim.Dpm_sim.Config.pre_activation_lead ~serve_slow:true
      ~specs:sim.Dpm_sim.Config.specs p plan
  in
  Dpm_trace.Generate.run
    ~config:
      { Dpm_trace.Generate.cost = Dpm_ir.Cost.default; cache_blocks = Suite.cache_blocks }
    compiled.Dpm_compiler.Pipeline.program plan

let write_traces () =
  List.iter
    (fun (b : Suite.spec) ->
      let t = trace_of b in
      Dpm_trace.Trace.save t (Jobs.trace_path b.name);
      Printf.printf "%s: %d events\n" (Jobs.trace_path b.name)
        (Dpm_trace.Trace.event_count t))
    Suite.all
