(* dpmsim: command-line driver for the compiler-directed disk power
   management pipeline.

   Subcommands: list, show, simulate, compile, dap, transform, trace,
   figure.  Run `dpmsim --help` or `dpmsim CMD --help`. *)

open Cmdliner

let spec_of_name name =
  try Dpm_workloads.Suite.find name
  with Not_found ->
    Dpm_util.Log.error ~scope:"dpmsim"
      ~kv:[ ("benchmark", name) ]
      "unknown benchmark (try `dpmsim list`)";
    exit 2

(* A benchmark's program and plan under [version], with the setup a
   benchmark job runs under ([simulate -b]): its calibrated noise, the
   suite's cache and the default disk. *)
let bench_job name version =
  match
    Dpm_core.Run.describe
      (Dpm_core.Run.spec ~version (Dpm_core.Run.Benchmark name))
  with
  | Error e ->
      Dpm_util.Log.error ~scope:"dpmsim" (Dpm_core.Run.error_message e);
      exit 2
  | Ok (_, setup) ->
      let p, plan =
        Dpm_core.Experiment.workload (Dpm_workloads.Suite.find name)
      in
      (setup, Dpm_compiler.Pipeline.transform version p plan)

let bench_arg =
  let doc = "Benchmark name (wupwise, swim, mgrid, applu, mesa, galgel)." in
  Arg.(required & opt (some string) None & info [ "b"; "benchmark" ] ~doc)

(* simulate can take a trace file instead of a benchmark, so there the
   flag is optional and exclusivity is checked in the command body. *)
let bench_opt_arg =
  let doc = "Benchmark name (wupwise, swim, mgrid, applu, mesa, galgel)." in
  Arg.(value & opt (some string) None & info [ "b"; "benchmark" ] ~doc)

let version_conv =
  let print ppf v =
    Format.pp_print_string ppf (Dpm_compiler.Pipeline.version_name v)
  in
  let parse s =
    Option.to_result (Dpm_core.Run.version_of_name s)
      ~none:(`Msg "expected one of: orig, LF, TL, LF+DL, TL+DL, TLall+DL")
  in
  Arg.conv (parse, print)

let version_arg =
  let doc =
    "Code transformation version (orig, LF, TL, LF+DL, TL+DL, TLall+DL)."
  in
  Arg.(
    value
    & opt version_conv Dpm_compiler.Pipeline.Orig
    & info [ "t"; "transform" ] ~doc)

(* A flag over one of [Run]'s name tables: any case, any unambiguous
   prefix. *)
let name_conv table =
  let enum = Arg.enum table in
  Arg.conv
    ( (fun s -> Arg.conv_parser enum (String.lowercase_ascii s)),
      Arg.conv_printer enum )

let mode_arg =
  let doc = "Replay model: open (the paper's trace-driven model) or closed." in
  Arg.(value & opt (name_conv Dpm_core.Run.modes) `Open & info [ "mode" ] ~doc)

(* The one artifact writer: [emit] writes to standard output for [-],
   otherwise to the file [dest], logged as [what].  A file that cannot
   be written is an error naming it (exit 2). *)
let write ?(scope = "dpmsim") ?(kv = []) ~what dest emit =
  if dest = "-" then emit stdout
  else
    match open_out dest with
    | exception Sys_error m ->
        Dpm_util.Log.error ~scope ~kv:[ ("file", dest) ] m;
        exit 2
    | oc ->
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            emit oc;
            close_out oc);
        Dpm_util.Log.info ~scope ~kv:(kv @ [ ("file", dest) ]) what

let json_text doc = Dpm_util.Json.to_string ~indent:1 doc ^ "\n"

(* --- shared instrumentation flags
       (--domains / --metrics / --trace / --log-level) --- *)

let domains_arg =
  let doc =
    "Number of domains experiment grids fan out over (results are \
     bit-identical whatever the value; default: the runtime's \
     recommended count, or $(b,DPM_DOMAINS))."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~doc ~docv:"N")

let metrics_arg =
  let doc =
    "Print per-stage wall time (workload build, compile, trace \
     generation, replay) and throughput counters after the command."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let trace_arg =
  let doc =
    "Record hierarchical spans for every pipeline stage (compile passes, \
     trace generation, each replay, every pool worker's tasks) and write \
     them as Chrome trace_event JSON, loadable in Perfetto or \
     chrome://tracing.  Recording is observational: results are \
     byte-identical with or without this flag."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let log_level_conv =
  let parse s =
    match Dpm_util.Log.level_of_string s with
    | Ok l -> Ok l
    | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf l -> Format.pp_print_string ppf (Dpm_util.Log.level_name l))

let log_level_arg =
  let doc = "Structured-log threshold: error, warn, info or debug." in
  Arg.(
    value
    & opt (some log_level_conv) None
    & info [ "log-level" ] ~doc ~docv:"LEVEL")

type instrument = { metrics : bool; trace : string option }

(* Evaluates before the command body: applies the domain override and
   switches the global collector's stage table and tracing on;
   [finish_instrumentation] drains it after the command. *)
let instrument_term =
  let apply domains metrics trace log_level =
    Option.iter Dpm_util.Pool.set_default_domains domains;
    if metrics then Dpm_util.Telemetry.(set_enabled global true);
    if trace <> None then Dpm_util.Telemetry.(set_tracing global true);
    Option.iter Dpm_util.Log.set_level log_level;
    { metrics; trace }
  in
  Term.(const apply $ domains_arg $ metrics_arg $ trace_arg $ log_level_arg)

let finish_instrumentation inst =
  if inst.metrics then print_string Dpm_util.Telemetry.(report global);
  Option.iter
    (fun path ->
      write
        ~kv:
          [
            ( "spans",
              string_of_int (List.length Dpm_util.Telemetry.(spans global)) );
          ]
        ~what:"wrote Chrome trace" path
        Dpm_util.Telemetry.(write_chrome_trace global))
    inst.trace

(* --- list --- *)

let list_cmd =
  let run () =
    Printf.printf "%-9s %8s %10s %12s %10s %7s\n" "name" "MB" "requests"
      "energy(J)" "time(s)" "noise";
    List.iter
      (fun (s : Dpm_workloads.Suite.spec) ->
        Printf.printf "%-9s %8.1f %10d %12.2f %10.2f %7.2f\n" s.name s.data_mb
          s.requests s.base_energy_j s.exec_time_s s.noise)
      Dpm_workloads.Suite.all;
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the benchmark suite (paper Table 2 targets).")
    Term.(const run $ const ())

(* --- show: print a benchmark's DSL source --- *)

let show_cmd =
  let run name =
    let spec = spec_of_name name in
    print_string (spec.Dpm_workloads.Suite.source ());
    0
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a benchmark's loop-nest DSL source.")
    Term.(const run $ bench_arg)

(* --- simulate --- *)

let schemes_arg =
  let doc = "Scheme(s) to simulate (default: all seven)." in
  Arg.(
    value
    & opt (list Dpm_core.Scheme.conv) Dpm_core.Scheme.all
    & info [ "s"; "scheme" ] ~doc)

let faults_conv =
  let parse s =
    match Dpm_sim.Fault.of_string s with
    | Ok f -> Ok f
    | Error m ->
        Error
          (`Msg
            (Printf.sprintf
               "bad fault spec: %s (format: comma-separated key=value over \
                seed, read, bad, badlen, spinfail, retries, backoff, remap, \
                fail=DISK@TIME;... — e.g. \
                \"seed=7,read=0.01,bad=0.005,spinfail=0.25,fail=0@30\")"
               m))
  in
  Arg.conv
    (parse, fun ppf f -> Format.pp_print_string ppf (Dpm_sim.Fault.to_string f))

let faults_arg =
  let doc =
    "Inject deterministic faults: transient read errors ($(b,read)), \
     bad-sector regions ($(b,bad)/$(b,badlen)), sticking spin-ups \
     ($(b,spinfail)) with bounded retry + exponential backoff \
     ($(b,retries)/$(b,backoff)), remap penalties ($(b,remap)) and \
     whole-disk failures ($(b,fail=DISK@TIME)), all seeded by $(b,seed)."
  in
  Arg.(value & opt (some faults_conv) None & info [ "faults" ] ~doc ~docv:"SPEC")

let timeline_arg =
  let doc =
    "Record per-disk event timelines while simulating.  $(b,-) prints a \
     per-scheme summary (residency table, Gantt lanes, independently \
     re-integrated energy and the invariant-check verdict) after the \
     results table; any other value is a file to write, as JSONL (one \
     labelled section per scheme) or as CSV when the name ends in \
     $(b,.csv).  Recording is observational: the results table is \
     byte-identical with or without this flag."
  in
  Arg.(value & opt (some string) None & info [ "timeline" ] ~doc ~docv:"FILE")

let histograms_arg =
  let doc =
    "Collect and print latency / queue-depth / idle-gap histograms \
     (p50/p90/p99/max) over the replay.  Observational: the results \
     table is unchanged."
  in
  Arg.(value & flag & info [ "histograms" ] ~doc)

let meter_arg =
  let doc =
    "Sample per-disk power at a fixed resolution while simulating (the \
     software-defined power meter, streamed from the event sink; the \
     sample integral reproduces the energy column to 1e-6 relative).  \
     $(b,-) prints a per-scheme power strip and per-disk peak/mean \
     table after the results; any other value is a file to write as \
     $(b,dpm-meter/1) JSONL (one labelled section per scheme), or as \
     CSV when the name ends in $(b,.csv).  Observational: the results \
     table is byte-identical with or without this flag, and the fast \
     replay core stays engaged."
  in
  Arg.(value & opt (some string) None & info [ "meter" ] ~doc ~docv:"FILE")

let resolution_arg =
  let doc =
    "Power-meter sampling window in seconds (with $(b,--meter); default \
     0.1)."
  in
  Arg.(
    value
    & opt float Dpm_sim.Meter.default_resolution
    & info [ "resolution" ] ~doc ~docv:"SECONDS")

let trace_file_workload_arg =
  let doc =
    "Replay a saved trace file (the format $(b,dpmsim trace -o) writes) \
     instead of generating a benchmark's trace; mutually exclusive with \
     $(b,-b).  Oracle schemes derive from the trace's Base replay; CM \
     schemes replay whatever directives the file embeds."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-file" ] ~doc ~docv:"FILE")

let stream_arg =
  let doc =
    "Read a trace file ($(b,--trace-file), or an $(b,--open-loop) file \
     source) chunk by chunk for each scheme's replay, in O(batch) trace \
     memory, instead of loading it once.  A generated trace is built \
     once whatever this flag says.  Results are byte-identical either \
     way."
  in
  Arg.(value & flag & info [ "stream" ] ~doc)

let batch_arg =
  let doc = "Stream chunk size in events (default 4096)." in
  Arg.(value & opt (some int) None & info [ "batch" ] ~doc ~docv:"N")

let core_arg =
  let doc =
    "Replay core: $(b,fast) (default) runs the specialized      structure-of-arrays loops under every scheduling discipline;      $(b,reference) forces the row-at-a-time reference body.       Results are byte-identical — $(b,reference) is the differential      oracle and escape hatch."
  in
  Arg.(
    value
    & opt (name_conv Dpm_core.Run.cores) `Fast
    & info [ "core" ] ~doc ~docv:"CORE")

let sched_conv =
  let parse s =
    match Dpm_sim.Config.sched_of_name_opt s with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown scheduler %S (expected one of: %s)" s
               (String.concat ", "
                  (List.map fst Dpm_sim.Config.sched_names))))
  in
  Arg.conv
    ( parse,
      fun ppf s -> Format.pp_print_string ppf (Dpm_sim.Config.sched_name s) )

let sched_arg =
  let doc =
    "Per-disk request-scheduling discipline: $(b,fcfs) (default, the \
     paper's arrival-order model), $(b,sstf), $(b,scan), $(b,clook), or \
     $(b,sstf-remap) (bad-sector-aware SSTF that prices remapped blocks \
     at their post-remap spare-pool position).  Non-FCFS disciplines \
     defer requests into bounded per-disk queues (depth \
     $(b,queue-depth)) and replay on the reference core."
  in
  Arg.(
    value & opt (some sched_conv) None & info [ "sched" ] ~doc ~docv:"DISCIPLINE")

let disk_model_conv =
  let parse s =
    match Dpm_disk.Specs.of_name_opt s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown disk model %S (expected one of: %s)" s
               (String.concat ", " (List.map fst Dpm_disk.Specs.all))))
  in
  Arg.conv
    ( parse,
      fun ppf m -> Format.pp_print_string ppf (Dpm_disk.Specs.name_of m) )

let fleet_arg =
  let doc =
    "Heterogeneous fleet: comma-separated disk models assigned \
     round-robin over the array's disk ids (disk $(i,d) gets the \
     $(i,d) mod $(i,N)-th model), e.g. $(b,ultrastar_36z15,flash).  \
     Default: every disk is the homogeneous $(b,ultrastar_36z15)."
  in
  Arg.(
    value & opt (list disk_model_conv) [] & info [ "fleet" ] ~doc ~docv:"MODELS")

(* The job a flag-driven [simulate] or [report] runs.  Base joins the
   requested schemes: it anchors the normalized columns. *)
let flag_spec ~schemes ~version ~mode ?faults ~fleet ~sched ?stream ?batch
    ?core workload =
  let schemes =
    if List.mem Dpm_core.Scheme.Base schemes then schemes
    else Dpm_core.Scheme.Base :: schemes
  in
  let sim =
    let c = Dpm_sim.Config.default in
    let c =
      if fleet = [] then c
      else Dpm_sim.Config.with_fleet (Array.of_list fleet) c
    in
    match sched with None -> c | Some s -> Dpm_sim.Config.with_sched s c
  in
  Dpm_core.Run.spec ~schemes ~sim ~mode ~version ?faults ?stream ?batch ?core
    workload

let spec_file_arg =
  let doc =
    "Replay a saved $(b,dpm-spec/1) run-spec file (the format $(b,dpmsim \
     sweep) persists for each winning configuration, or \
     [Dpm_core.Run.to_file]).  The spec is self-contained — workload, \
     schemes and the whole setup (simulator configuration, faults, mode, \
     transform, stream, core) — so it is mutually exclusive with \
     $(b,-b)/$(b,--trace-file)/$(b,--open-loop) and ignores the tuning \
     flags; the observational flags ($(b,--timeline), $(b,--histograms), \
     $(b,--meter)) apply as on any run."
  in
  Arg.(value & opt (some string) None & info [ "spec" ] ~doc ~docv:"FILE")

let open_loop_arg =
  let doc =
    "Simulate an open-loop multi-tenant workload: comma-separated \
     $(b,key=value) descriptor over $(b,rate) (jobs/s; required), \
     $(b,burst) (jobs per burst; makes arrivals bursty), $(b,jobs), \
     $(b,zipf) (popularity skew), $(b,seed) and $(b,sources) \
     ($(b,:)-separated benchmark names or trace-file paths), e.g. \
     $(b,\"rate=0.05,jobs=6,zipf=1,seed=3,sources=swim:mgrid\").  Each \
     arriving job replays one source; all tenants multiplex onto the \
     same disk array.  Mutually exclusive with \
     $(b,-b)/$(b,--trace-file)/$(b,--spec)."
  in
  Arg.(
    value & opt (some string) None & info [ "open-loop" ] ~doc ~docv:"SPEC")

let print_results_table results ~schemes =
  let base =
    match List.assoc_opt Dpm_core.Scheme.Base results with
    | Some b -> b
    | None -> snd (List.hd results)
  in
  let shown =
    match schemes with
    | None -> results
    | Some schemes -> List.filter (fun (s, _) -> List.mem s schemes) results
  in
  Printf.printf "%-8s %12s %10s %8s %8s\n" "scheme" "energy(J)" "time(s)"
    "E/base" "T/base";
  List.iter
    (fun (s, (r : Dpm_sim.Result.t)) ->
      Printf.printf "%-8s %12.2f %10.2f %8.3f %8.3f\n"
        (Dpm_core.Scheme.name s) r.energy r.exec_time
        (Dpm_sim.Result.normalized_energy r ~base)
        (Dpm_sim.Result.normalized_time r ~base))
    shown;
  shown

(* Timeline or meter sections: each one's rendered summary on [-],
   otherwise JSONL, or CSV when the file name ends in [.csv]. *)
let write_sections ~what dest ~render ~export items =
  write ~what
    ~kv:[ ("sections", string_of_int (List.length items)) ]
    dest
    (fun oc ->
      let csv = Filename.check_suffix dest ".csv" in
      List.iter
        (fun x ->
          if dest = "-" then begin
            output_char oc '\n';
            output_string oc (render x)
          end
          else export ~csv x oc)
        items)

let simulate_cmd =
  let run inst name trace_file open_loop spec_file schemes version mode faults
      timeline histograms stream batch core fleet sched meter resolution =
    if histograms then Dpm_util.Telemetry.(set_histograms global true);
    let ( let* ) = Result.bind in
    let flag_job workload =
      Ok
        ( flag_spec ~schemes ~version ~mode ?faults ~fleet ~sched ~stream
            ?batch ~core workload,
          Some schemes )
    in
    (* The job, plus the schemes whose rows to show: a flag run hides the
       Base it joined for normalization; a spec file shows every row. *)
    let job =
      if meter <> None && not (Float.is_finite resolution && resolution > 0.0)
      then Error "--resolution must be positive and finite"
      else
        match (spec_file, name, trace_file, open_loop) with
        | Some f, None, None, None ->
            Result.map
              (fun rspec -> (rspec, None))
              (Result.map_error Dpm_core.Run.error_message
                 (Dpm_core.Run.of_file f))
        | Some _, _, _, _ ->
            Error
              "--spec is self-contained; don't combine it with \
               -b/--benchmark, --trace-file or --open-loop"
        | None, Some n, None, None -> flag_job (Dpm_core.Run.Benchmark n)
        | None, None, Some f, None -> flag_job (Dpm_core.Run.Trace_file f)
        | None, None, None, Some ol -> (
            match Dpm_trace.Openloop.of_string ol with
            | Ok (load, sources) ->
                flag_job (Dpm_core.Run.Open_loop { load; sources })
            | Error m -> Error ("bad --open-loop descriptor: " ^ m))
        | None, None, None, None ->
            Error
              "one of -b/--benchmark, --trace-file, --open-loop or --spec is \
               required"
        | None, _, _, _ ->
            Error
              "pass exactly one of -b/--benchmark, --trace-file or --open-loop"
    in
    let ran =
      let* rspec, shown = job in
      Result.map_error Dpm_core.Run.error_message
        (let* observed =
           (* A plain run records nothing. *)
           if timeline = None && meter = None then
             Result.map (fun r -> (r, [], [])) (Dpm_core.Run.exec_all rspec)
           else
             Dpm_core.Run.observe
               ?meter:(Option.map (fun _ -> resolution) meter)
               rspec
         in
         let* _, setup = Dpm_core.Run.describe rspec in
         Ok (observed, shown, setup))
    in
    match ran with
    | Error m ->
        Dpm_util.Log.error ~scope:"dpmsim" m;
        2
    | Ok ((results, sinks, meters), shown, setup) ->
        let shown = print_results_table results ~schemes:shown in
        (* A --faults flag, or a spec that injects faults. *)
        (if
           faults <> None
           || setup.Dpm_core.Experiment.faults <> Dpm_sim.Fault.none
         then begin
           Printf.printf "\n%-8s %8s %10s %8s %11s %10s %7s\n" "scheme"
             "retries" "delay(s)" "remaps" "spinup-rec" "redirects" "failed";
           List.iter
             (fun (s, (r : Dpm_sim.Result.t)) ->
               let f = r.Dpm_sim.Result.faults in
               Printf.printf "%-8s %8d %10.3f %8d %11d %10d %7d\n"
                 (Dpm_core.Scheme.name s) f.Dpm_sim.Result.read_retries
                 f.Dpm_sim.Result.retry_delay f.Dpm_sim.Result.remaps
                 f.Dpm_sim.Result.spin_up_recoveries
                 f.Dpm_sim.Result.redirects f.Dpm_sim.Result.failed_disks)
             shown
         end);
        Option.iter
          (fun dest ->
            write_sections ~what:"wrote timeline" dest
              ~render:Dpm_sim.Timeline.summary
              ~export:(fun ~csv ->
                if csv then Dpm_sim.Timeline.write_csv
                else Dpm_sim.Timeline.write_jsonl)
              (List.filter_map
                 (fun (s, _) ->
                   Option.map Dpm_sim.Timeline.contents (List.assoc_opt s sinks))
                 shown))
          timeline;
        Option.iter
          (fun dest ->
            write_sections ~what:"wrote power-meter samples" dest
              ~render:(fun (scheme, _, m) ->
                Printf.sprintf "== %s ==\n%s" scheme (Dpm_sim.Meter.summary m))
              ~export:(fun ~csv (scheme, program, m) ->
                (if csv then Dpm_sim.Meter.write_csv
                 else Dpm_sim.Meter.write_jsonl)
                  (Dpm_sim.Meter.to_section ~scheme ~program m))
              (List.filter_map
                 (fun (s, (r : Dpm_sim.Result.t)) ->
                   Option.map
                     (fun m ->
                       (Dpm_core.Scheme.name s, r.Dpm_sim.Result.program, m))
                     (List.assoc_opt s meters))
                 shown))
          meter;
        (if histograms then
           let rendered =
             Dpm_util.Telemetry.(histogram_report global)
           in
           if rendered <> "" then begin
             print_newline ();
             print_string rendered
           end);
        finish_instrumentation inst;
        0
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Simulate a benchmark (or a saved trace file, or a replayable \
          dpm-spec/1 run-spec) under one or more power-management schemes.")
    Term.(
      const run $ instrument_term $ bench_opt_arg $ trace_file_workload_arg
      $ open_loop_arg $ spec_file_arg $ schemes_arg $ version_arg $ mode_arg
      $ faults_arg $ timeline_arg $ histograms_arg $ stream_arg $ batch_arg
      $ core_arg $ fleet_arg $ sched_arg $ meter_arg $ resolution_arg)

(* --- timeline: summarize a recorded event log --- *)

let timeline_cmd =
  let file_arg =
    let doc =
      "JSONL timeline file written by $(b,simulate --timeline) ($(b,-) \
       reads standard input)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"FILE")
  in
  let run file =
    match
      let ic = if file = "-" then stdin else open_in file in
      Fun.protect
        ~finally:(fun () -> if ic != stdin then close_in_noerr ic)
        (fun () -> Dpm_sim.Timeline.read_jsonl ic)
    with
    | exception Sys_error m ->
        Dpm_util.Log.error ~scope:"dpmsim" m;
        2
    | Error m ->
        Dpm_util.Log.error ~scope:"dpmsim" ~kv:[ ("file", file) ] m;
        2
    | Ok [] ->
        Dpm_util.Log.error ~scope:"dpmsim"
          ~kv:[ ("file", file) ]
          "no timeline sections";
        2
    | Ok logs ->
        List.iteri
          (fun i tl ->
            if i > 0 then print_newline ();
            print_string (Dpm_sim.Timeline.summary tl))
          logs;
        if
          List.for_all
            (fun tl -> Dpm_sim.Timeline.check tl = Ok ())
            logs
        then 0
        else 1
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Summarize recorded event timelines: per-disk residencies, Gantt \
          lanes, independently re-integrated energy and the state-machine \
          invariant check (exit 1 on violations, 2 on an unreadable or \
          malformed file).")
    Term.(const run $ file_arg)

(* --- compile: print the instrumented program --- *)

let compile_cmd =
  let run name version =
    let setup, (p, plan) = bench_job name version in
    let compiled =
      Dpm_compiler.Pipeline.compile ~scheme:Dpm_compiler.Insertion.Drpm
        ~noise:setup.noise ~seed:setup.seed ~cache_blocks:setup.cache_blocks
        ~specs:setup.sim.Dpm_sim.Config.specs p plan
    in
    print_string (Dpm_ir.Printer.program compiled.Dpm_compiler.Pipeline.program);
    Printf.printf "\n# %d power-management decisions\n"
      (List.length compiled.Dpm_compiler.Pipeline.decisions);
    0
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Run the proactive CMDRPM compilation and print the instrumented \
          code with its inserted set_rpm calls.")
    Term.(const run $ bench_arg $ version_arg)

(* --- dap --- *)

let disk_arg =
  let doc = "Disk id to print the DAP for." in
  Arg.(value & opt int 0 & info [ "d"; "disk" ] ~doc)

let dap_cmd =
  let run name disk version =
    let setup, (p, plan) = bench_job name version in
    let activities =
      Dpm_compiler.Access.of_program_cached ~cache_blocks:setup.cache_blocks
        p plan
    in
    let est =
      Dpm_compiler.Estimate.profile ~cache_blocks:setup.cache_blocks
        ~specs:setup.sim.Dpm_sim.Config.specs p plan
    in
    let dap = Dpm_compiler.Dap.build activities est in
    Format.printf "@[<v>%a@]@." (Dpm_compiler.Dap.pp_disk activities)
      (dap, disk);
    0
  in
  Cmd.v
    (Cmd.info "dap"
       ~doc:"Print a disk's access pattern (the paper's Figure 2(c) form).")
    Term.(const run $ bench_arg $ disk_arg $ version_arg)

(* --- transform --- *)

let transform_cmd =
  let run name version =
    let _, (p, plan) = bench_job name version in
    print_string (Dpm_ir.Printer.program p);
    Format.printf "@.%a@." Dpm_layout.Plan.pp plan;
    0
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:"Apply a code/layout transformation and print the result.")
    Term.(const run $ bench_arg $ version_arg)

(* --- trace --- *)

let trace_cmd =
  let out_arg =
    let doc = "File to save the trace to (omit to print a summary)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  (* The trace a benchmark job replays: generated through the job
     setup's cache, so [simulate --trace-file] of a saved trace gives
     [simulate -b]'s Base, TPM, ITPM, DRPM and IDRPM rows. *)
  let run name version out =
    let setup, (p, plan) = bench_job name version in
    let trace =
      Dpm_trace.Generate.run
        ~config:
          {
            Dpm_trace.Generate.default_config with
            cache_blocks = setup.cache_blocks;
          }
        p plan
    in
    (match out with
    | Some path ->
        Dpm_trace.Trace.save trace path;
        Printf.printf "saved %d events to %s\n"
          (Dpm_trace.Trace.event_count trace)
          path
    | None ->
        Printf.printf
          "program=%s ndisks=%d io=%d pm=%d bytes=%d think=%.2fs\n"
          (Dpm_trace.Trace.program trace)
          (Dpm_trace.Trace.ndisks trace)
          (Dpm_trace.Trace.io_count trace)
          (Dpm_trace.Trace.pm_count trace)
          (Dpm_trace.Trace.total_bytes trace)
          (Dpm_trace.Trace.total_think trace));
    0
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Generate (and optionally save) an I/O trace.")
    Term.(const run $ bench_arg $ version_arg $ out_arg)

(* --- figure --- *)

let figure_cmd =
  let fig_arg =
    let doc =
      "Figure/table id: "
      ^ String.concat ", " (List.map fst Dpm_core.Figures.catalogue)
      ^ "."
    in
    Arg.(non_empty & pos_all string [] & info [] ~doc ~docv:"ID")
  in
  let run inst ids =
    let rc =
      List.fold_left
        (fun rc id ->
          match List.assoc_opt id Dpm_core.Figures.catalogue with
          | Some f ->
              print_string (Dpm_core.Figures.traced id f).Dpm_core.Figures.rendered;
              print_newline ();
              rc
          | None ->
              Dpm_util.Log.error ~scope:"dpmsim"
                ~kv:[ ("figure", id) ]
                "unknown figure";
              2)
        0 ids
    in
    finish_instrumentation inst;
    rc
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate one of the paper's tables/figures.")
    Term.(const run $ instrument_term $ fig_arg)

(* --- report: machine-readable run report --- *)

let report_cmd =
  let out_arg =
    let doc = "File to write the JSON report to ($(b,-) for stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~doc ~docv:"FILE")
  in
  let md_arg =
    let doc = "Also render the report as a markdown digest to this file." in
    Arg.(value & opt (some string) None & info [ "md" ] ~doc ~docv:"FILE")
  in
  let run inst name schemes version mode faults fleet sched out md =
    match
      Dpm_core.Report.of_spec
        (flag_spec ~schemes ~version ~mode ?faults ~fleet ~sched
           (Dpm_core.Run.Benchmark name))
    with
    | Error e ->
        Dpm_util.Log.error ~scope:"dpmsim" (Dpm_core.Run.error_message e);
        2
    | Ok doc -> (
        match Dpm_core.Report.validate doc with
        | Error msgs ->
            List.iter
              (fun m -> Dpm_util.Log.error ~scope:"report" m)
              msgs;
            1
        | Ok () ->
            write ~what:"wrote run report" out (fun oc ->
                output_string oc (json_text doc));
            Option.iter
              (fun path ->
                write ~what:"wrote markdown digest" path (fun oc ->
                    output_string oc (Dpm_core.Report.markdown doc)))
              md;
            finish_instrumentation inst;
            0)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run a benchmark under every scheme and emit one machine-readable \
          JSON report: energies, normalized ratios, fault counters, per-disk \
          timeline summaries with re-integrated energy and invariant \
          verdicts, latency/queue/idle-gap histograms and stage timings.")
    Term.(
      const run $ instrument_term $ bench_arg $ schemes_arg $ version_arg
      $ mode_arg $ faults_arg $ fleet_arg $ sched_arg $ out_arg $ md_arg)

(* --- report-check: validate report and trace artifacts --- *)

let report_check_cmd =
  let report_arg =
    let doc = "Run-report JSON file to validate." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"REPORT")
  in
  let trace_file_arg =
    let doc = "Chrome trace file to check for balanced B/E events." in
    Arg.(
      value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")
  in
  let schema_arg =
    let doc =
      "Print the report's schema outline (sorted key paths with type \
       tags) to stdout — compared against the golden outline by $(b,make \
       report-check)."
    in
    Arg.(value & flag & info [ "schema" ] ~doc)
  in
  let load path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Dpm_util.Json.parse_string s
  in
  let run report trace schema =
    let fail scope msgs =
      List.iter (fun m -> Dpm_util.Log.error ~scope m) msgs;
      1
    in
    match load report with
    | Error m -> fail "report-check" [ report ^ ": " ^ m ]
    | exception Sys_error m -> fail "report-check" [ m ]
    | Ok doc -> (
        match Dpm_core.Report.validate doc with
        | Error msgs -> fail "report-check" msgs
        | Ok () -> (
            if schema then
              List.iter print_endline (Dpm_util.Json.schema_outline doc);
            match trace with
            | None -> 0
            | Some path -> (
                match load path with
                | Error m -> fail "trace-check" [ path ^ ": " ^ m ]
                | exception Sys_error m -> fail "trace-check" [ m ]
                | Ok tdoc -> (
                    match Dpm_util.Telemetry.validate_chrome tdoc with
                    | Error msgs -> fail "trace-check" msgs
                    | Ok () ->
                        Dpm_util.Log.info ~scope:"report-check"
                          ~kv:[ ("report", report); ("trace", path) ]
                          "artifacts ok";
                        0))))
  in
  Cmd.v
    (Cmd.info "report-check"
       ~doc:
         "Validate a run report (schema, required fields, invariant \
          verdicts) and optionally a Chrome trace (parseable, non-empty, \
          balanced B/E events).  Exit 1 on any violation.")
    Term.(const run $ report_arg $ trace_file_arg $ schema_arg)

(* --- aggregate: fleet dashboard over a sweep directory --- *)

let aggregate_cmd =
  let paths_arg =
    let doc =
      "Directories and/or files to aggregate: $(b,dpm-report/1) JSON \
       documents ($(b,dpmsim report -o)) and $(b,dpm-meter/1) JSONL \
       sample files ($(b,dpmsim simulate --meter)).  Directories are \
       expanded to their files (sorted); anything that is neither \
       schema is skipped with a reason, never fatally."
    in
    Arg.(non_empty & pos_all string [] & info [] ~doc ~docv:"PATH")
  in
  let out_arg =
    let doc =
      "File to write the $(b,dpm-agg/1) JSON document to ($(b,-) for \
       stdout; omit to only print the text dashboard)."
    in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc ~docv:"FILE")
  in
  let md_arg =
    let doc = "Also render the dashboard as markdown to this file." in
    Arg.(value & opt (some string) None & info [ "md" ] ~doc ~docv:"FILE")
  in
  let run paths out md =
    match Dpm_core.Aggregate.of_paths paths with
    | Error m ->
        Dpm_util.Log.error ~scope:"aggregate" m;
        2
    | Ok agg -> (
        let doc = Dpm_core.Aggregate.to_json agg in
        match Dpm_core.Aggregate.validate doc with
        | Error msgs ->
            List.iter (fun m -> Dpm_util.Log.error ~scope:"aggregate" m) msgs;
            1
        | Ok () ->
            print_string (Dpm_core.Aggregate.render agg);
            Option.iter
              (fun dest ->
                write ~scope:"aggregate" ~what:"wrote dpm-agg/1 document" dest
                  (fun oc ->
                    (* On stdout, a blank line after the dashboard. *)
                    if dest = "-" then output_char oc '\n';
                    output_string oc (json_text doc)))
              out;
            Option.iter
              (fun path ->
                write ~scope:"aggregate" ~what:"wrote markdown dashboard" path
                  (fun oc -> output_string oc (Dpm_core.Aggregate.markdown agg)))
              md;
            0)
  in
  Cmd.v
    (Cmd.info "aggregate"
       ~doc:
         "Merge a sweep directory's run reports and power-meter sample \
          files into one fleet dashboard: per-scheme totals and \
          normalized-energy spread, exactly-merged telemetry histograms, \
          fleet-wide peak/mean power and per-disk-model energy \
          attribution (schema dpm-agg/1).  Exit 1 when the inputs \
          contain nothing aggregatable.")
    Term.(const run $ paths_arg $ out_arg $ md_arg)

(* --- sweep: auto-tuning parameter-space exploration --- *)

let sweep_cmd =
  let axes_arg =
    let doc =
      "Axes to sweep: $(b,;)-separated $(b,axis=v1,v2,...) clauses over "
      ^ String.concat ", " (List.map Dpm_sim.Config.knob_name Dpm_sim.Config.knobs)
      ^ " — e.g. $(b,\"tpm-threshold=4,15.2;drpm-lower=0.02,0.08\") or \
         $(b,\"sched=fcfs,sstf,scan;queue-depth=8,32\") (the categorical \
         $(b,sched) axis takes scheduler names)."
    in
    Arg.(
      required & opt (some string) None & info [ "axes" ] ~doc ~docv:"AXES")
  in
  let workloads_arg =
    let doc = "Benchmarks to sweep over (comma-separated)." in
    Arg.(
      value
      & opt (list string) [ "swim"; "galgel" ]
      & info [ "w"; "workloads" ] ~doc ~docv:"NAMES")
  in
  let sweep_schemes_arg =
    let doc =
      "Scheme(s) to compare at every grid point (Base is always added as \
       the normalization anchor; default: Base, TPM, DRPM, Adaptive, \
       ITPM)."
    in
    Arg.(
      value
      & opt (list Dpm_core.Scheme.conv) Dpm_core.Sweep.default_schemes
      & info [ "s"; "scheme" ] ~doc)
  in
  let output_dir_arg =
    let doc =
      "Directory to write artifacts into: $(b,sweep.json) (the \
       dpm-sweep/1 document) and one replayable \
       $(b,best-)$(i,BENCH)$(b,.spec.json) run-spec per workload winner \
       (each is re-executed on the spot to prove it reproduces the \
       winning row bit-for-bit)."
    in
    Arg.(
      value & opt (some string) None & info [ "output-dir" ] ~doc ~docv:"DIR")
  in
  let md_arg =
    let doc = "Also render the sweep report as markdown to this file." in
    Arg.(value & opt (some string) None & info [ "md" ] ~doc ~docv:"FILE")
  in
  (* The replay gate: a persisted winning spec must reproduce its cell's
     numbers bit-for-bit ("%.17g" captures the exact doubles). *)
  let row_fingerprint results =
    String.concat "\n"
      (List.map
         (fun (s, (r : Dpm_sim.Result.t)) ->
           Printf.sprintf "%s %.17g %.17g" (Dpm_core.Scheme.name s)
             r.Dpm_sim.Result.energy r.Dpm_sim.Result.exec_time)
         results)
  in
  let run inst axes workloads schemes output_dir md =
    match Dpm_core.Sweep.axes_of_string axes with
    | Error m ->
        Dpm_util.Log.error ~scope:"sweep" ~kv:[ ("axes", axes) ] m;
        2
    | Ok [] ->
        Dpm_util.Log.error ~scope:"sweep" "no axes given";
        2
    | Ok axes -> (
        match Dpm_core.Sweep.run ~schemes ~axes ~workloads () with
        | Error e ->
            Dpm_util.Log.error ~scope:"sweep" (Dpm_core.Run.error_message e);
            2
        | Ok outcome -> (
            print_string (Dpm_core.Sweep.render outcome);
            let doc = Dpm_core.Sweep.to_json outcome in
            match Dpm_core.Sweep.validate doc with
            | Error msgs ->
                List.iter (fun m -> Dpm_util.Log.error ~scope:"sweep" m) msgs;
                1
            | Ok () ->
                Option.iter
                  (fun path ->
                    write ~scope:"sweep" ~what:"wrote markdown report" path
                      (fun oc ->
                        output_string oc (Dpm_core.Sweep.markdown outcome)))
                  md;
                let rc = ref 0 in
                (match output_dir with
                | None -> ()
                | Some dir ->
                    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                    write ~scope:"sweep" ~what:"wrote dpm-sweep/1 document"
                      (Filename.concat dir "sweep.json")
                      (fun oc -> output_string oc (json_text doc));
                    List.iter
                      (fun (_, (cell : Dpm_core.Sweep.cell), _) ->
                        let w = cell.Dpm_core.Sweep.workload in
                        let path =
                          Filename.concat dir ("best-" ^ w ^ ".spec.json")
                        in
                        let replay =
                          Result.bind
                            (Option.to_result
                               ~none:
                                 (Dpm_core.Run.Run_failure "no winning spec")
                               (Dpm_core.Sweep.best_spec outcome ~workload:w))
                            (fun spec ->
                              Result.bind (Dpm_core.Run.to_file spec path)
                                (fun () ->
                                  Result.bind (Dpm_core.Run.of_file path)
                                    Dpm_core.Run.exec_all))
                        in
                        match replay with
                        | Error e ->
                            Dpm_util.Log.error ~scope:"sweep"
                              ~kv:[ ("file", path) ]
                              (Dpm_core.Run.error_message e);
                            rc := 1
                        | Ok results ->
                            if
                              String.equal
                                (row_fingerprint cell.Dpm_core.Sweep.results)
                                (row_fingerprint results)
                            then
                              Dpm_util.Log.info ~scope:"sweep"
                                ~kv:[ ("file", path) ]
                                "winning spec replayed bit-identically"
                            else begin
                              Dpm_util.Log.error ~scope:"sweep"
                                ~kv:[ ("file", path) ]
                                "replayed spec diverged from the sweep cell";
                              rc := 1
                            end)
                      (Dpm_core.Sweep.winners outcome));
                finish_instrumentation inst;
                !rc))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Explore a grid over the simulator-configuration knobs: run every \
          (workload x point) cell under the requested schemes in parallel, \
          print best-configuration and per-axis sensitivity tables, and \
          optionally persist the dpm-sweep/1 document plus a replayable \
          run-spec for each workload's winning configuration.")
    Term.(
      const run $ instrument_term $ axes_arg $ workloads_arg
      $ sweep_schemes_arg $ output_dir_arg $ md_arg)

(* --- serve / submit: the fleet simulation service --- *)

let socket_arg =
  let doc =
    "Service address: a Unix socket path, or $(b,HOST:PORT) (numeric \
     port) for TCP."
  in
  Arg.(
    value & opt string "dpmsim.sock" & info [ "socket" ] ~doc ~docv:"ADDR")

let port_arg =
  let doc = "Shorthand for $(b,--socket 127.0.0.1:PORT)." in
  Arg.(value & opt (some int) None & info [ "port" ] ~doc ~docv:"PORT")

let address_of ~socket ~port =
  match port with
  | Some p -> Dpm_core.Service.Net.Tcp { host = "127.0.0.1"; port = p }
  | None -> Dpm_core.Service.Net.address_of_string socket

let serve_cmd =
  let queue_arg =
    let doc =
      "Admission-queue depth: how many jobs may wait for a worker; \
       beyond it submissions are rejected with the typed \
       $(b,queue-full) error and its $(b,retry_after) hint (running \
       jobs don't count)."
    in
    Arg.(value & opt int 64 & info [ "queue" ] ~doc ~docv:"N")
  in
  let retry_after_arg =
    let doc = "Retry hint (seconds) carried by queue-full rejections." in
    Arg.(value & opt float 1.0 & info [ "retry-after" ] ~doc ~docv:"SECONDS")
  in
  let run inst socket port queue retry_after =
    let address = address_of ~socket ~port in
    match Dpm_core.Service.create ~queue ~retry_after () with
    | exception Invalid_argument m ->
        Dpm_util.Log.error ~scope:"serve" m;
        2
    | service -> (
        Dpm_util.Log.info ~scope:"serve"
          ~kv:
            [
              ( "address",
                Dpm_core.Service.Net.address_to_string address );
              ("queue", string_of_int queue);
            ]
          "serving";
        match Dpm_core.Service.Net.serve service address with
        | () ->
            let st = Dpm_core.Service.stats service in
            Dpm_util.Log.info ~scope:"serve"
              ~kv:
                [
                  ("completed", string_of_int st.Dpm_core.Service.completed);
                  ("rejected", string_of_int st.Dpm_core.Service.rejected);
                ]
              "drained and stopped";
            finish_instrumentation inst;
            0
        | exception Unix.Unix_error (e, fn, arg) ->
            Dpm_util.Log.error ~scope:"serve"
              ~kv:[ ("syscall", fn); ("arg", arg) ]
              (Unix.error_message e);
            2)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the fleet simulation daemon: accept dpm-spec/1 jobs over a \
          Unix or TCP socket, schedule them across the domain pool behind \
          a bounded admission queue (explicit queue-full backpressure), \
          and stream each job's dpm-report/1 document — plus live \
          dpm-meter/1 power samples for metered jobs — back over the \
          connection.  Daemon runs are bit-identical to direct `dpmsim \
          simulate` of the same spec.  Exits when a client sends the \
          shutdown op, after draining every admitted job.")
    Term.(
      const run $ instrument_term $ socket_arg $ port_arg $ queue_arg
      $ retry_after_arg)

let submit_cmd =
  let specs_arg =
    let doc = "dpm-spec/1 run-spec file(s) to submit, in order." in
    Arg.(value & pos_all file [] & info [] ~doc ~docv:"SPEC")
  in
  let meter_res_arg =
    let doc =
      "Meter every job at this resolution (seconds per window): the \
       daemon streams live per-scheme power samples, and the client \
       checks each scheme's sample integral against the report's energy \
       column (1e-6 relative)."
    in
    Arg.(
      value & opt (some float) None & info [ "meter" ] ~doc ~docv:"SECONDS")
  in
  let out_dir_arg =
    let doc = "Write each job's dpm-report/1 document into this directory." in
    Arg.(
      value & opt (some string) None & info [ "o"; "output-dir" ] ~doc ~docv:"DIR")
  in
  let shutdown_flag =
    let doc = "After the last job, ask the daemon to drain and exit." in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  (* The results table from the decoded report — same format string as
     [print_results_table], so a daemon-run table diffs cleanly against
     `dpmsim simulate`'s. *)
  let print_report_table (report : Dpm_core.Report.t) =
    Printf.printf "%-8s %12s %10s %8s %8s\n" "scheme" "energy(J)" "time(s)"
      "E/base" "T/base";
    List.iter
      (fun (row : Dpm_core.Report.scheme_row) ->
        Printf.printf "%-8s %12.2f %10.2f %8.3f %8.3f\n" row.scheme
          row.energy_j row.exec_time_s row.energy_norm row.time_norm)
      report.schemes
  in
  (* Client-side integral of the streamed samples, per scheme, in
     arrival order — the wire carries %.17g floats, so this reproduces
     the daemon's own integral bit-for-bit. *)
  let check_meters ~acc (report : Dpm_core.Report.t) =
    List.iter
      (fun (row : Dpm_core.Report.scheme_row) ->
        let energy = row.energy_j in
        let integral, samples =
          Option.value ~default:(0.0, 0) (Hashtbl.find_opt acc row.scheme)
        in
        let rel =
          if energy = 0.0 then abs_float integral
          else abs_float (integral -. energy) /. energy
        in
        Printf.printf "meter %-8s samples=%d integral=%.2f J energy=%.2f J %s\n"
          row.scheme samples integral energy
          (if rel <= 1e-6 then "ok" else "MISMATCH"))
      report.schemes
  in
  let run inst socket port specs meter out_dir shutdown_f =
    let address = address_of ~socket ~port in
    match Dpm_core.Service.Net.connect address with
    | Error e ->
        Dpm_util.Log.error ~scope:"submit" (Dpm_core.Run.error_message e);
        2
    | Ok client ->
        Fun.protect
          ~finally:(fun () -> Dpm_core.Service.Net.close client)
          (fun () ->
            let rc = ref 0 in
            (match out_dir with
            | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
            | _ -> ());
            List.iter
              (fun file ->
                match Dpm_core.Run.of_file file with
                | Error e ->
                    Dpm_util.Log.error ~scope:"submit" ~kv:[ ("spec", file) ]
                      (Dpm_core.Run.error_message e);
                    rc := 2
                | Ok spec ->
                    let acc = Hashtbl.create 8 in
                    let on_sample ~scheme (s : Dpm_sim.Meter.sample) =
                      let integral, n =
                        Option.value ~default:(0.0, 0)
                          (Hashtbl.find_opt acc scheme)
                      in
                      Hashtbl.replace acc scheme
                        ( integral
                          +. (s.Dpm_sim.Meter.watts
                             *. (s.Dpm_sim.Meter.t1 -. s.Dpm_sim.Meter.t0)),
                          n + 1 )
                    in
                    (* The client owns the retry loop: queue-full
                       rejections back off by the daemon's own hint. *)
                    let rec go retries =
                      match
                        Dpm_core.Service.Net.submit ?meter ~on_sample client
                          spec
                      with
                      | Error (Dpm_core.Run.Queue_full { retry_after })
                        when retries > 0 ->
                          Dpm_util.Log.info ~scope:"submit"
                            ~kv:[ ("spec", file) ]
                            (Printf.sprintf "queue full; retrying in %gs"
                               retry_after);
                          Thread.delay retry_after;
                          go (retries - 1)
                      | r -> r
                    in
                    (match go 600 with
                    | Error e ->
                        Dpm_util.Log.error ~scope:"submit"
                          ~kv:[ ("spec", file) ]
                          (Dpm_core.Run.error_message e);
                        rc := 1
                    | Ok (id, report) ->
                        Printf.printf "== job %d: %s ==\n" id
                          (Filename.basename file);
                        (match Dpm_core.Report.decode report with
                        | Ok decoded ->
                            print_report_table decoded;
                            if meter <> None then check_meters ~acc decoded
                        | Error m ->
                            Dpm_util.Log.error ~scope:"submit"
                              ~kv:[ ("spec", file) ]
                              ("malformed report: " ^ m);
                            rc := 1);
                        Option.iter
                          (fun dir ->
                            write ~scope:"submit" ~what:"wrote run report"
                              (Filename.concat dir
                                 (Printf.sprintf "job-%d.report.json" id))
                              (fun oc -> output_string oc (json_text report)))
                          out_dir))
              specs;
            (if shutdown_f then
               match Dpm_core.Service.Net.shutdown client with
               | Ok completed ->
                   Printf.printf "shutdown: daemon drained, %d job%s completed\n"
                     completed
                     (if completed = 1 then "" else "s")
               | Error e ->
                   Dpm_util.Log.error ~scope:"submit"
                     (Dpm_core.Run.error_message e);
                   rc := 1);
            finish_instrumentation inst;
            !rc)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit dpm-spec/1 run-spec files to a running `dpmsim serve` \
          daemon, print each job's results table (and, with $(b,--meter), \
          verify the streamed power samples integrate to the report's \
          energy column), optionally saving the dpm-report/1 documents.  \
          Queue-full rejections are retried after the daemon's \
          retry_after hint.")
    Term.(
      const run $ instrument_term $ socket_arg $ port_arg $ specs_arg
      $ meter_res_arg $ out_dir_arg $ shutdown_flag)

let () =
  let doc =
    "Software-directed disk power management (IPDPS'05 reproduction)."
  in
  let info = Cmd.info "dpmsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd;
            show_cmd;
            simulate_cmd;
            compile_cmd;
            dap_cmd;
            transform_cmd;
            trace_cmd;
            timeline_cmd;
            figure_cmd;
            report_cmd;
            report_check_cmd;
            aggregate_cmd;
            sweep_cmd;
            serve_cmd;
            submit_cmd;
          ]))
