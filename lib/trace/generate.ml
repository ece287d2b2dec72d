type config = { cost : Dpm_ir.Cost.model; cache_blocks : int }

let default_config = { cost = Dpm_ir.Cost.default; cache_blocks = 1024 }

(* Folds the one loop-nest walk into an event sink, so the same walk
   backs both the materializing [generate] and the chunked [stream].
   Cycles become seconds at each request (its think time) and at the
   end (the tail think time, which this returns). *)
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

let generate ~config (p : Dpm_ir.Program.t) plan =
  let events = ref [] in
  let tail_think = walk ~config p plan ~emit:(fun e -> events := e :: !events) in
  Trace.make ~tail_think ~program:p.Dpm_ir.Program.name
    ~ndisks:(Dpm_layout.Plan.ndisks plan)
    (List.rev !events)

let run ?(config = default_config) p plan =
  let tele = Dpm_util.Telemetry.global in
  let trace =
    Dpm_util.Telemetry.span
      ~args:(fun () -> [ ("program", p.Dpm_ir.Program.name) ])
      tele "trace.gen"
      (fun () -> generate ~config p plan)
  in
  Dpm_util.Telemetry.add tele "trace.events" (Trace.event_count trace);
  trace

(* Re-runs the walk with a max-tracking sink: the exact block-address
   space ([max block + 1]) a materialized run of the same program would
   have, without retaining any events.  Forced only by fault-injected
   streaming replays. *)
let max_block ~config p plan =
  let acc = ref 0 in
  let (_ : float) =
    walk ~config p plan ~emit:(function
      | Request.Io io -> acc := max !acc (io.Request.block + 1)
      | Request.Pm _ -> ())
  in
  !acc

let stream ?(config = default_config) ?batch p plan =
  (* No span here: the walk runs interleaved with the consumer's replay,
     so its wall time is not a meaningful stage on its own.  The event
     count is still recorded, once, when the producer finishes. *)
  let count = ref 0 in
  Trace.Stream.of_push ?batch
    ~nblocks:(lazy (max_block ~config p plan))
    ~program:p.Dpm_ir.Program.name
    ~ndisks:(Dpm_layout.Plan.ndisks plan)
    (fun ~emit ->
      let tail =
        walk ~config p plan ~emit:(fun e ->
            incr count;
            emit e)
      in
      Dpm_util.Telemetry.(add global) "trace.events" !count;
      tail)
