(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (printed as text tables) and runs Bechamel
   micro-benchmarks of the pipeline stages.

   Usage:
     bench/main.exe                          -- everything
     bench/main.exe fig3 table2              -- selected figures only
     bench/main.exe micro                    -- only the micro-benchmarks
     bench/main.exe fig3 --domains 4 --metrics
                                             -- fan the grid out over 4
                                                domains and report
                                                per-stage wall time *)

open Cmdliner
module Figures = Dpm_core.Figures
module Telemetry = Dpm_util.Telemetry
module Pool = Dpm_util.Pool

(* Per-figure wall times, in run order — the BENCH snapshot's payload. *)
let timings : (string * float) list ref = ref []

let print_figure name f =
  let t0 = Telemetry.now () in
  let figure =
    Telemetry.span Telemetry.global ("figure." ^ name) (fun () ->
        Figures.traced name f)
  in
  timings := (name, Telemetry.now () -. t0) :: !timings;
  print_string figure.Figures.rendered;
  print_newline ()

(* The synthetic workload of the throughput gate, ~10× the largest
   figure-grid input (wupwise's ~24.6k requests): one 256 MB array of
   4096 stripe units swept 64 times through the default 1024-unit LRU
   cache, so every sweep misses on every unit — 262,144 I/O events. *)
let stream_source =
  {|# stream-synthetic: cache-thrashing sweeps, 262144 IOs
array G[512][64] : 8192
for s = 1 to 64 { for i = 0 to 511 { for j = 0 to 63 { use G[i][j] work 400 } } }
|}

(* --- Fast-core throughput gate ---

   Replays the 262k-request synthetic workload through both engine
   cores — the row-at-a-time reference body and the specialized
   structure-of-arrays loop — for one policy of each specialization
   kind, under the default configuration (every replay keeps its busy
   intervals), then prices the two oracles over each core's Base
   result.  Reports events/sec, the fast/reference speedup, and the
   fast side's minor-heap allocations per event (Gc.minor_words
   deltas), and asserts the two sides return structurally identical
   results.  With [--baseline FILE] it additionally compares against
   committed floors (see test/golden/bench_baseline.json) and fails on
   a >25% events/sec or speedup regression — the `make perf-check` CI
   gate. *)

let throughput_section : (string * Dpm_util.Json.t) list ref = ref []

let throughput_mode ~baseline () =
  let open Dpm_util.Json in
  let p = Dpm_ir.Parser.program ~name:"stream-synthetic" stream_source in
  let plan = Dpm_workloads.Suite.default_plan p in
  let trace = Dpm_trace.Generate.run p plan in
  let events = Dpm_trace.Trace.event_count trace in
  let ndisks = Dpm_trace.Trace.ndisks trace in
  let config = Dpm_sim.Config.default in
  (* Policies are created fresh per replay: the reactive ones (DRPM)
     carry mutable controller state that must not leak across runs.
     The scheduler rows replay Base under each non-FCFS discipline:
     the fast core's deferred-dispatch loop against the reference
     body's, so their speedup floor gates that loop like the FCFS rows
     gate the eager one. *)
  let sched cfg s = Dpm_sim.Config.with_sched s cfg in
  (* The Base+meter row replays Base with a timeline sink and a
     streaming power meter attached — the gate on the meter's own
     overhead.  Its floor in bench_baseline.json keeps the metered path
     within the same order of magnitude as the bare fast core. *)
  let schemes =
    [
      ("Base", config, false, fun () -> Dpm_sim.Policy.base);
      ("Base+meter", config, true, fun () -> Dpm_sim.Policy.base);
      ("TPM", config, false, fun () -> Dpm_sim.Policy.tpm config);
      ("DRPM", config, false, fun () -> Dpm_sim.Policy.drpm config ~ndisks);
      ("CMDRPM", config, false, fun () -> Dpm_sim.Policy.cm_drpm);
      ( "SSTF",
        sched config Dpm_sim.Config.Sstf,
        false,
        fun () -> Dpm_sim.Policy.base );
      ( "SCAN",
        sched config Dpm_sim.Config.Scan,
        false,
        fun () -> Dpm_sim.Policy.base );
      ( "C-LOOK",
        sched config Dpm_sim.Config.Clook,
        false,
        fun () -> Dpm_sim.Policy.base );
      ( "SSTF-R",
        sched config Dpm_sim.Config.Sstf_remap,
        false,
        fun () -> Dpm_sim.Policy.base );
    ]
  in
  let replay ?(meter = false) config core policy =
    if meter then begin
      let sink = Dpm_sim.Timeline.sink () in
      let m =
        Dpm_sim.Meter.create ~resolution:0.5
          ~specs:config.Dpm_sim.Config.specs ~capacity:4096 ()
      in
      Dpm_sim.Meter.attach m sink;
      let r =
        Dpm_sim.Engine.run_stream ~config ~core ~timeline:sink (policy ())
          (Dpm_trace.Trace.Stream.of_trace trace)
      in
      Dpm_sim.Meter.finish m;
      ignore (Dpm_sim.Meter.integral m);
      r
    end
    else
      Dpm_sim.Engine.run_stream ~config ~core (policy ())
        (Dpm_trace.Trace.Stream.of_trace trace)
  in
  (* Each row times one run on either core.  The oracle rows (ITPM,
     IDRPM) price the Base result of the row's core, replayed once
     up front: the oracle has one implementation, so their "speedup"
     only compares two timings of it, and "identical" checks it over
     the two cores' Base results.  Their events are the trace's. *)
  let bases =
    lazy
      ( replay config `Reference (fun () -> Dpm_sim.Policy.base),
        replay config `Fast (fun () -> Dpm_sim.Policy.base) )
  in
  let oracle price core =
    let on_ref, on_fast = Lazy.force bases in
    price (match core with `Reference -> on_ref | `Fast -> on_fast)
  in
  let rows_to_time =
    List.map
      (fun (name, config, meter, policy) ->
        (name, fun core -> replay ~meter config core policy))
      schemes
    @ [
        ("ITPM", oracle (fun base -> Dpm_sim.Oracle.itpm ~config base));
        ("IDRPM", oracle (fun base -> Dpm_sim.Oracle.idrpm ~config base));
      ]
  in
  let time_runs n run core =
    let t0 = Telemetry.now () in
    let last = ref (run core) in
    for _ = 2 to n do
      last := run core
    done;
    ((Telemetry.now () -. t0) /. float_of_int n, !last)
  in
  let t_total0 = Telemetry.now () in
  print_endline
    "== Replay core throughput (synthetic 262144-event workload) ==";
  Printf.printf "  %-10s %12s %12s %9s %12s %10s\n" "scheme" "ref-ev/s"
    "fast-ev/s" "speedup" "words/event" "identical";
  let all_identical = ref true in
  let rows =
    List.map
      (fun (name, run) ->
        (* Warm both cores once (page in the trace, settle the GC). *)
        ignore (run `Reference);
        ignore (run `Fast);
        let ref_s, r_ref = time_runs 2 run `Reference in
        let minor0 = Gc.minor_words () in
        let fast_s, r_fast = time_runs 10 run `Fast in
        let minor1 = Gc.minor_words () in
        let identical = r_ref = r_fast in
        if not identical then all_identical := false;
        let fev = float_of_int events in
        let ref_eps = fev /. ref_s in
        let fast_eps = fev /. fast_s in
        let speedup = fast_eps /. ref_eps in
        let words_per_event = (minor1 -. minor0) /. (fev *. 10.0) in
        Printf.printf "  %-10s %12.0f %12.0f %8.1fx %12.3f %10b\n" name ref_eps
          fast_eps speedup words_per_event identical;
        ( name,
          Obj
            [
              ("reference_eps", Float ref_eps);
              ("fast_eps", Float fast_eps);
              ("speedup", Float speedup);
              ("minor_words_per_event", Float words_per_event);
              ("identical", Bool identical);
            ] ))
      rows_to_time
  in
  timings := ("throughput", Telemetry.now () -. t_total0) :: !timings;
  throughput_section :=
    [
      ( "throughput",
        Obj
          [
            ("events", Int events);
            ("schemes", Obj rows);
            ("identical", Bool !all_identical);
          ] );
    ];
  let rc = if !all_identical then 0 else 1 in
  if rc <> 0 then
    Dpm_util.Log.error ~scope:"bench"
      "fast and reference cores disagree on the throughput workload";
  (* Baseline comparison: fail on >25% regression against the committed
     floors, for events/sec (machine-dependent — the floors are set
     conservatively) and for the fast/reference speedup (machine-
     independent). *)
  match baseline with
  | None -> rc
  | Some path -> (
      let doc =
        let ic = open_in path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        match Dpm_util.Json.parse_string s with
        | Ok doc -> doc
        | Error m -> failwith (Printf.sprintf "%s: %s" path m)
      in
      let tolerance =
        match Option.bind (member "tolerance" doc) to_float with
        | Some t -> t
        | None -> 0.75
      in
      let floors =
        match member "schemes" doc with
        | Some s -> s
        | None -> failwith (path ^ ": missing schemes object")
      in
      let failures = ref [] in
      List.iter
        (fun (name, row) ->
          match member name floors with
          | None -> ()
          | Some floor ->
              let get field doc =
                match Option.bind (member field doc) to_float with
                | Some v -> v
                | None ->
                    failwith
                      (Printf.sprintf "%s: %s.%s missing" path name field)
              in
              let check field =
                let current = get field row in
                let base = get field floor in
                if current < tolerance *. base then
                  failures :=
                    Printf.sprintf "%s.%s: %.0f < %.2f x %.0f" name field
                      current tolerance base
                    :: !failures
              in
              check "fast_eps";
              check "speedup")
        rows;
      match !failures with
      | [] ->
          Printf.printf "  baseline check: ok (vs %s, tolerance %.2f)\n" path
            tolerance;
          rc
      | fs ->
          List.iter
            (fun f ->
              Dpm_util.Log.error ~scope:"bench"
                ~kv:[ ("violation", f) ]
                "throughput regression vs committed baseline")
            fs;
          1)

(* --- Auto-tuning sweep: the Adaptive controller vs the grid ---

   A small thresholds x tolerances grid over two suite workloads,
   checking the ISSUE's acceptance property as a bench gate: the online
   Adaptive controller must beat the best fixed-threshold TPM energy on
   at least one workload while staying above the IDRPM oracle bound on
   every cell. *)

let sweep_section : (string * Dpm_util.Json.t) list ref = ref []

let sweep_mode () =
  let open Dpm_util.Json in
  let module Sweep = Dpm_core.Sweep in
  let module Scheme = Dpm_core.Scheme in
  let axes =
    [
      { Sweep.name = "tpm-threshold"; values = [ 4.0; 15.2 ] };
      { Sweep.name = "drpm-lower"; values = [ 0.02; 0.08 ] };
    ]
  in
  let workloads = [ "swim"; "galgel" ] in
  let t0 = Telemetry.now () in
  match Sweep.run ~axes ~workloads () with
  | Error e ->
      Dpm_util.Log.error ~scope:"bench"
        ~kv:[ ("error", Dpm_core.Run.error_message e) ]
        "sweep failed";
      1
  | Ok outcome ->
      print_string (Sweep.render outcome);
      let energy scheme (cell : Sweep.cell) =
        (List.assoc scheme cell.Sweep.results).Dpm_sim.Result.energy
      in
      (* Best fixed-TPM and best Adaptive energy per workload, off the
         same grid. *)
      let best_of scheme workload =
        List.fold_left
          (fun acc (w, s, cell, _) ->
            if w = workload && s = scheme then
              Float.min acc (energy scheme cell)
            else acc)
          infinity (Sweep.best outcome)
      in
      let adaptive_beats_tpm =
        List.filter
          (fun w -> best_of Scheme.Adaptive w < best_of Scheme.Tpm w)
          workloads
      in
      let above_oracle =
        List.for_all
          (fun (cell : Sweep.cell) ->
            energy Scheme.Adaptive cell >= energy Scheme.Idrpm cell -. 1e-6)
          outcome.Sweep.cells
      in
      let rc = if adaptive_beats_tpm <> [] && above_oracle then 0 else 1 in
      if rc <> 0 then
        Dpm_util.Log.error ~scope:"bench"
          ~kv:
            [
              ( "adaptive_beats_tpm",
                String.concat "," adaptive_beats_tpm );
              ("above_oracle", string_of_bool above_oracle);
            ]
          "adaptive policy failed the sweep acceptance gate"
      else
        Printf.printf
          "  sweep gate: ok (Adaptive beats fixed TPM on %s; above the \
           oracle bound on all %d cells)\n"
          (String.concat ", " adaptive_beats_tpm)
          (List.length outcome.Sweep.cells);
      timings := ("sweep", Telemetry.now () -. t0) :: !timings;
      sweep_section :=
        [
          ( "sweep",
            Obj
              [
                ("cells", Int (List.length outcome.Sweep.cells));
                ( "adaptive_beats_tpm",
                  Arr (List.map (fun w -> Str w) adaptive_beats_tpm) );
                ("above_oracle", Bool above_oracle);
                ("doc", Sweep.to_json outcome);
              ] );
        ];
      rc

(* --- Bechamel micro-benchmarks: one per pipeline stage --- *)

let micro () =
  let open Bechamel in
  let spec = Dpm_workloads.Suite.find "galgel" in
  let program = Dpm_workloads.Suite.program spec in
  let plan = Dpm_workloads.Suite.default_plan program in
  let specs = Dpm_sim.Config.default.Dpm_sim.Config.specs in
  let trace = Dpm_trace.Generate.run program plan in
  let source = spec.Dpm_workloads.Suite.source () in
  let tests =
    [
      Test.make ~name:"parse-galgel"
        (Staged.stage (fun () ->
             ignore (Dpm_ir.Parser.program ~name:"galgel" source)));
      Test.make ~name:"access-analysis"
        (Staged.stage (fun () ->
             ignore (Dpm_compiler.Access.of_program_cached program plan)));
      Test.make ~name:"timing-profile"
        (Staged.stage (fun () ->
             ignore (Dpm_compiler.Estimate.profile ~specs program plan)));
      Test.make ~name:"trace-generation"
        (Staged.stage (fun () -> ignore (Dpm_trace.Generate.run program plan)));
      Test.make ~name:"replay-base"
        (Staged.stage (fun () ->
             ignore (Dpm_sim.Engine.run Dpm_sim.Policy.base trace)));
      Test.make ~name:"compile-cmdrpm"
        (Staged.stage (fun () ->
             ignore
               (Dpm_compiler.Pipeline.compile
                  ~scheme:Dpm_compiler.Insertion.Drpm ~specs program plan)));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  print_endline "== Micro-benchmarks (pipeline stages on galgel) ==";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name m ->
          let stats =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              Toolkit.Instance.monotonic_clock m
          in
          match Analyze.OLS.estimates stats with
          | Some [ t ] -> Printf.printf "  %-22s %12.1f ns/run\n%!" name t
          | Some _ | None -> Printf.printf "  %-22s (no estimate)\n%!" name)
        results)
    tests

(* --- CLI --- *)

let figures_arg =
  let doc =
    "Figures/tables to regenerate (default: all plus the \
     micro-benchmarks).  $(b,micro) selects the Bechamel \
     micro-benchmarks; $(b,throughput) the fast-vs-reference \
     replay-core comparison with allocation accounting; $(b,sweep) the \
     auto-tuning sweep gate."
  in
  Arg.(value & pos_all string [] & info [] ~doc ~docv:"FIGURE")

let baseline_arg =
  let doc =
    "Committed throughput floor (JSON with a $(b,schemes) object of \
     $(b,fast_eps)/$(b,speedup) floors and an optional $(b,tolerance), \
     default 0.75).  Only meaningful with the $(b,throughput) figure: \
     exits non-zero on a regression beyond the tolerance — the \
     $(b,make perf-check) gate."
  in
  Arg.(value & opt (some file) None & info [ "baseline" ] ~doc ~docv:"FILE")

let domains_arg =
  let doc =
    "Number of domains the experiment grids fan out over (default: the \
     runtime's recommended count, or $(b,DPM_DOMAINS)).  Results are \
     bit-identical whatever the value."
  in
  Arg.(value & opt (some int) None & info [ "d"; "domains" ] ~doc ~docv:"N")

let metrics_arg =
  let doc =
    "Collect and print per-stage wall time (workload build, compile, \
     trace generation, replay) and throughput counters."
  in
  Arg.(value & flag & info [ "m"; "metrics" ] ~doc)

let json_arg =
  let doc =
    "Write a machine-readable benchmark snapshot (schema dpm-bench/1): \
     per-figure wall times plus the stage/counter tables — the repo's \
     perf-trajectory artifact, uploaded by CI."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")

let trace_arg =
  let doc =
    "Record hierarchical spans (each figure, its pool tasks, every \
     compile/generate/replay underneath) and write Chrome trace_event \
     JSON for Perfetto or chrome://tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let log_level_arg =
  let doc = "Structured-log threshold: error, warn, info or debug." in
  let level_conv =
    Arg.conv
      ( (fun s ->
          match Dpm_util.Log.level_of_string s with
          | Ok l -> Ok l
          | Error m -> Error (`Msg m)),
        fun ppf l -> Format.pp_print_string ppf (Dpm_util.Log.level_name l) )
  in
  Arg.(
    value & opt (some level_conv) None & info [ "log-level" ] ~doc ~docv:"LEVEL")

let run names domains metrics json trace log_level baseline =
  Option.iter Pool.set_default_domains domains;
  Option.iter Dpm_util.Log.set_level log_level;
  (* The snapshot embeds the stage table, so --json implies --metrics. *)
  if metrics || json <> None then Telemetry.(set_enabled global true);
  if trace <> None then Telemetry.(set_tracing global true);
  let total0 = Telemetry.now () in
  let rc =
    match names with
    | [] ->
        let rc = throughput_mode ~baseline () in
        let rc = max rc (sweep_mode ()) in
        List.iter (fun (name, f) -> print_figure name f) Figures.catalogue;
        micro ();
        rc
    | names ->
        List.fold_left
          (fun rc name ->
            if String.equal name "micro" then begin
              micro ();
              rc
            end
            else if String.equal name "throughput" then
              max rc (throughput_mode ~baseline ())
            else if String.equal name "sweep" then max rc (sweep_mode ())
            else
              match List.assoc_opt name Figures.catalogue with
              | Some f ->
                  print_figure name f;
                  rc
              | None ->
                  Dpm_util.Log.error ~scope:"bench"
                    ~kv:
                      [
                        ("figure", name);
                        ( "available",
                          String.concat " " (List.map fst Figures.catalogue)
                          ^ " throughput sweep micro" );
                      ]
                    "unknown figure";
                  2)
          0 names
  in
  if metrics then begin
    Printf.printf "total wall time: %.3f s (domains=%d)\n"
      (Telemetry.now () -. total0)
      (Pool.default_domains ());
    print_string Telemetry.(report global)
  end;
  (match json with
  | None -> ()
  | Some path ->
      let doc =
        Dpm_core.Report.bench_snapshot
          ~extra:(!throughput_section @ !sweep_section)
          ~figures:(List.rev !timings) ()
      in
      (match Dpm_core.Report.validate_bench doc with
      | Ok () -> ()
      | Error msgs ->
          List.iter (fun m -> Dpm_util.Log.error ~scope:"bench" m) msgs);
      let oc = open_out path in
      Dpm_util.Json.to_channel ~indent:1 oc doc;
      output_char oc '\n';
      close_out oc;
      Dpm_util.Log.info ~scope:"bench"
        ~kv:[ ("file", path) ]
        "wrote benchmark snapshot");
  (match trace with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Telemetry.(write_chrome_trace global) oc;
      close_out oc;
      Dpm_util.Log.info ~scope:"bench"
        ~kv:[ ("file", path) ]
        "wrote Chrome trace");
  rc

let () =
  let doc =
    "Regenerate the paper's tables and figures, with optional \
     multi-domain fan-out, per-stage metrics, Chrome traces and \
     machine-readable snapshots."
  in
  let info = Cmd.info "dpm-bench" ~doc in
  exit
    (Cmd.eval'
       (Cmd.v info
          Term.(
            const run $ figures_arg $ domains_arg $ metrics_arg $ json_arg
            $ trace_arg $ log_level_arg $ baseline_arg)))
