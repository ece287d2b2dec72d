type config = { cost : Dpm_ir.Cost.model; cache_blocks : int }

let default_config = { cost = Dpm_ir.Cost.default; cache_blocks = 1024 }

(* Folds a walk's log into an event sink.  Cycles become seconds at
   each request (its think time) and at the end (the tail think time,
   which this returns). *)
let fold log ~emit =
  let cost = Walk.cost log and plan = Walk.plan log in
  let pending = ref 0 and current_iter = ref 0 in
  let think cycles =
    let t = Dpm_ir.Cost.seconds cost (!pending + cycles) in
    pending := 0;
    t
  in
  let tail =
    Walk.iter log
      ~iteration:(fun ~cycles ~item:_ ~ordinal:_ ~iter ->
        pending := !pending + cycles;
        current_iter := iter)
      ~miss:(fun ~cycles ~item ~array ~unit ~kind ->
        emit
          (Request.Io
             {
               think = think cycles;
               disk = Dpm_layout.Plan.unit_disk plan array unit;
               block = Dpm_layout.Plan.unit_global_block plan array unit;
               bytes = Dpm_layout.Plan.unit_bytes plan array unit;
               kind;
               nest = item;
               iter = !current_iter;
             }))
      ~call:(fun ~cycles call ->
        let directive =
          match call with
          | Dpm_ir.Loop.Spin_down d -> Request.Spin_down d
          | Dpm_ir.Loop.Spin_up d -> Request.Spin_up d
          | Dpm_ir.Loop.Set_rpm { level; disk } ->
              Request.Set_rpm { level; disk }
        in
        emit (Request.Pm { think = think cycles; directive }))
  in
  think tail

let of_log log =
  let tele = Dpm_util.Telemetry.global in
  let name = (Walk.program log).Dpm_ir.Program.name in
  let trace =
    Dpm_util.Telemetry.span
      ~args:(fun () -> [ ("program", name) ])
      tele "trace.gen"
      (fun () ->
        Trace.build ~program:name
          ~ndisks:(Dpm_layout.Plan.ndisks (Walk.plan log))
          (fold log))
  in
  Dpm_util.Telemetry.add tele "trace.events" (Trace.event_count trace);
  trace

let run ?(config = default_config) p plan =
  of_log (Walk.log ~cost:config.cost ~cache_blocks:config.cache_blocks p plan)
