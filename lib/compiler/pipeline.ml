type version = Orig | LF | TL | LF_DL | TL_DL | TL_ALL_DL

let all_versions = [ Orig; LF; TL; LF_DL; TL_DL ]

let version_name = function
  | Orig -> "Orig"
  | LF -> "LF"
  | TL -> "TL"
  | LF_DL -> "LF+DL"
  | TL_DL -> "TL+DL"
  | TL_ALL_DL -> "TLall+DL"

let transform version (p : Dpm_ir.Program.t) plan =
  match version with
  | Orig -> (p, plan)
  | LF ->
      let grouping = Grouping.of_program p in
      (Fission.apply p grouping, plan)
  | LF_DL ->
      let grouping = Grouping.of_program p in
      let p' = Fission.apply p grouping in
      let plan' =
        Disk_alloc.plan ~ndisks:(Dpm_layout.Plan.ndisks plan) p grouping
      in
      (p', plan')
  | TL -> Tiling.apply ~dl:false p plan
  | TL_DL -> Tiling.apply ~dl:true p plan
  | TL_ALL_DL -> Tiling.apply_all ~dl:true p plan

type compiled = {
  program : Dpm_ir.Program.t;
  decisions : Insertion.decision list;
  dap : Dap.t;
  estimate : Estimate.t;
  profile : Estimate.t;
}

let compile ~scheme ?(noise = 0.0) ?(seed = 42) ?cache_blocks
    ?pm_overhead ?pre_lead ?serve_slow ~specs (p : Dpm_ir.Program.t) plan =
  let tele = Dpm_util.Telemetry.global in
  let span name f = Dpm_util.Telemetry.span tele name f in
  Dpm_util.Telemetry.span
    ~args:(fun () -> [ ("program", p.Dpm_ir.Program.name) ])
    tele "compile.pipeline"
    (fun () ->
      let activities =
        span "compile.access" (fun () ->
            Access.of_program_cached ?cache_blocks p plan)
      in
      let exact =
        span "compile.estimate" (fun () ->
            Estimate.profile ?cache_blocks ~specs p plan)
      in
      let estimate =
        if noise = 0.0 then exact else Estimate.perturb ~noise ~seed exact
      in
      let dap = span "compile.dap" (fun () -> Dap.build activities estimate) in
      let program, decisions =
        span "compile.insert" (fun () ->
            Insertion.insert ~specs ?pm_overhead ?pre_lead ?serve_slow scheme
              p dap
              estimate)
      in
      if Dpm_util.Telemetry.histograms_enabled tele then
        List.iter
          (fun (d : Insertion.decision) ->
            Dpm_util.Telemetry.observe tele "compile.idle_gap.predicted_s"
              (d.window.Dap.t_end -. d.window.Dap.t_start))
          decisions;
      { program; decisions; dap; estimate; profile = exact })
