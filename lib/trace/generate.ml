type config = { cost : Dpm_ir.Cost.model; cache_blocks : int }

let default_config = { cost = Dpm_ir.Cost.default; cache_blocks = 1024 }

(* Core loop-nest walk, parameterized over the event sink so the same
   code (same LRU cache, same cost model, same emission order) backs
   both the materializing [generate] and the chunked [stream].  Returns
   the tail think time left pending after the last event. *)
let walk ~config (p : Dpm_ir.Program.t) plan ~emit =
  let cache = Dpm_cache.Lru.create ~capacity:config.cache_blocks in
  let pending_cycles = ref 0 in
  let current_iter = ref 0 in
  let flush_think () =
    let t = Dpm_ir.Cost.seconds config.cost !pending_cycles in
    pending_cycles := 0;
    t
  in
  let unit_bytes name u =
    let entry = Dpm_layout.Plan.entry plan name in
    let ss = entry.Dpm_layout.Plan.striping.Dpm_layout.Striping.stripe_size in
    let file = Dpm_ir.Array_decl.size_bytes entry.Dpm_layout.Plan.decl in
    min ss (file - (u * ss))
  in
  let touch ~nest ~kind (r : Dpm_ir.Reference.t) env =
    let idx = Dpm_ir.Reference.eval env r in
    let u = Dpm_layout.Plan.element_unit plan r.array idx in
    match Dpm_cache.Lru.access cache (r.array, u) with
    | `Hit -> ()
    | `Miss _ ->
        emit
          (Request.Io
             {
               think = flush_think ();
               disk = Dpm_layout.Plan.unit_disk plan r.array u;
               block = Dpm_layout.Plan.unit_global_block plan r.array u;
               bytes = unit_bytes r.array u;
               kind;
               nest;
               iter = !current_iter;
             })
  in
  let callbacks =
    {
      Dpm_ir.Enumerate.on_enter =
        (fun ~nest:_ ~depth ~var:_ ~value ->
          if depth = 0 then current_iter := value;
          pending_cycles := !pending_cycles + config.cost.loop_overhead);
      on_stmt =
        (fun ~nest s env ->
          pending_cycles :=
            !pending_cycles + Dpm_ir.Cost.stmt_cycles config.cost s;
          List.iter (fun r -> touch ~nest ~kind:Request.Read r env) s.reads;
          Option.iter
            (fun w -> touch ~nest ~kind:Request.Write w env)
            s.write);
      on_call =
        (fun ~nest:_ call _env ->
          let directive =
            match call with
            | Dpm_ir.Loop.Spin_down d -> Request.Spin_down d
            | Dpm_ir.Loop.Spin_up d -> Request.Spin_up d
            | Dpm_ir.Loop.Set_rpm { level; disk } ->
                Request.Set_rpm { level; disk }
          in
          emit (Request.Pm { think = flush_think (); directive }));
    }
  in
  Dpm_ir.Enumerate.run callbacks p;
  flush_think ()

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
let max_block ?(config = default_config) p plan =
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

let request_count ?config p plan = Trace.io_count (run ?config p plan)
