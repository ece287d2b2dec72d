type config = { cost : Dpm_ir.Cost.model; cache_blocks : int }

let default_config = { cost = Dpm_ir.Cost.default; cache_blocks = 1024 }

(* Folds the one loop-nest walk into an event sink.  Cycles become
   seconds at each request (its think time) and at the end (the tail
   think time, which this returns). *)
let walk ~config (p : Dpm_ir.Program.t) plan ~emit =
  let pending = ref 0 and current_iter = ref 0 in
  let think cycles =
    let t = Dpm_ir.Cost.seconds config.cost (!pending + cycles) in
    pending := 0;
    t
  in
  let tail =
    Walk.run ~cost:config.cost ~cache_blocks:config.cache_blocks
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
      p plan
  in
  think tail

let run ?(config = default_config) p plan =
  let tele = Dpm_util.Telemetry.global in
  let trace =
    Dpm_util.Telemetry.span
      ~args:(fun () -> [ ("program", p.Dpm_ir.Program.name) ])
      tele "trace.gen"
      (fun () ->
        Trace.build ~program:p.Dpm_ir.Program.name
          ~ndisks:(Dpm_layout.Plan.ndisks plan)
          (walk ~config p plan))
  in
  Dpm_util.Telemetry.add tele "trace.events" (Trace.event_count trace);
  trace
