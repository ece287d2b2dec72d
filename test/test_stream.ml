(* Streaming ≡ materialized: the PR-5 acceptance property.  The replay
   engine's per-event body is shared between [Engine.run] and
   [Engine.run_stream], so any divergence here means a chunk boundary
   leaked into the semantics. *)

module Request = Dpm_trace.Request
module Trace = Dpm_trace.Trace
module Stream = Trace.Stream
module Generate = Dpm_trace.Generate
module Engine = Dpm_sim.Engine
module Policy = Dpm_sim.Policy
module Config = Dpm_sim.Config
module Fault = Dpm_sim.Fault
module Timeline = Dpm_sim.Timeline
module Result = Dpm_sim.Result
module Parser = Dpm_ir.Parser
module Plan = Dpm_layout.Plan
module Scheme = Dpm_core.Scheme
module Experiment = Dpm_core.Experiment
module Run = Dpm_core.Run
module Pool = Dpm_util.Pool

let kib = Dpm_util.Units.kib
let sample_events = Gen.sample_events
let sample_trace = Gen.sample_trace

let lines t = Array.to_list (Array.map Request.to_line (Trace.events t))

(* --- Stream producers: unit behavior --- *)

let test_of_trace_chunking () =
  let t = sample_trace () in
  let s = Stream.of_trace ~batch:3 t in
  Alcotest.(check string) "program" "smp" (Stream.program s);
  Alcotest.(check int) "ndisks" 4 (Stream.ndisks s);
  Alcotest.(check int) "batch" 3 (Stream.batch s);
  Alcotest.(check (float 1e-9)) "tail known up front" 0.25
    (Stream.tail_think s);
  Alcotest.(check int) "nblocks" 18 (Stream.nblocks s);
  let sizes = ref [] in
  let rec drain () =
    match Stream.next s with
    | Some chunk ->
        sizes := Array.length chunk :: !sizes;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "chunk sizes" [ 3; 3; 2 ] (List.rev !sizes);
  Alcotest.(check bool) "exhaustion latched" true (Stream.next s = None)

let test_to_trace_roundtrip () =
  let t = sample_trace () in
  List.iter
    (fun batch ->
      let t' = Stream.to_trace (Stream.of_trace ~batch t) in
      Alcotest.(check (list string)) "events survive" (lines t) (lines t');
      Alcotest.(check (float 1e-9)) "tail survives" (Trace.tail_think t)
        (Trace.tail_think t'))
    [ 1; 3; 4096 ]

(* [Trace.build] keeps a producer's rows exactly as [Trace.make] keeps
   the same list: with nothing emitted, across the fixed-size chunks it
   encodes into, and rejecting the same unreplayable rows. *)
let test_build_matches_make () =
  let build events tail =
    Trace.build ~program:"b" ~ndisks:4 (fun ~emit ->
        List.iter emit events;
        tail)
  in
  let same label events =
    let built = build events 0.75
    and made = Trace.make ~tail_think:0.75 ~program:"b" ~ndisks:4 events in
    Alcotest.(check int) (label ^ ": rows") (Trace.event_count made)
      (Trace.event_count built);
    Alcotest.(check (list string)) (label ^ ": same rows") (lines made)
      (lines built);
    Alcotest.(check bool) (label ^ ": same decoded events") true
      (Trace.events made = Trace.events built);
    Alcotest.(check (float 0.0)) (label ^ ": tail from producer return")
      (Trace.tail_think made) (Trace.tail_think built);
    Alcotest.(check string) (label ^ ": program") (Trace.program made)
      (Trace.program built);
    Alcotest.(check int) (label ^ ": ndisks") (Trace.ndisks made)
      (Trace.ndisks built)
  in
  same "empty" [];
  same "sample" sample_events;
  let sample = Array.of_list sample_events in
  same "9000 rows"
    (List.init 9000 (fun i -> sample.(i mod Array.length sample)));
  let rejection f =
    match f () with
    | (_ : Trace.t) -> None
    | exception Invalid_argument m -> Some m
  in
  List.iter
    (fun (label, events, tail) ->
      let made =
        rejection (fun () ->
            Trace.make ~tail_think:tail ~program:"b" ~ndisks:4 events)
      in
      Alcotest.(check bool) (label ^ ": make rejects") true (made <> None);
      Alcotest.(check (option string)) (label ^ ": build rejects alike") made
        (rejection (fun () -> build events tail)))
    [
      ("disk out of range", [ Gen.io ~disk:7 () ], 0.0);
      ("negative think", sample_events @ [ Gen.io ~think:(-1.0) () ], 0.0);
      ("nan tail", sample_events, Float.nan);
    ]

(* --- Incremental file parsing --- *)

let with_temp_file write f =
  let path = Filename.temp_file "dpm_stream" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write path;
      f path)

let test_of_file_roundtrip () =
  let t = sample_trace () in
  with_temp_file (Trace.save t) (fun path ->
      let s = Stream.of_file ~batch:3 path in
      Alcotest.(check string) "header program" "smp" (Stream.program s);
      Alcotest.(check int) "header ndisks" 4 (Stream.ndisks s);
      Alcotest.(check int) "nblocks rescans" 18 (Stream.nblocks s);
      let t' = Stream.to_trace s in
      Alcotest.(check (list string)) "events survive" (lines t) (lines t');
      Alcotest.(check (float 1e-9)) "tail survives" 0.25 (Trace.tail_think t'))

let expect_parse_error ~substring path =
  try
    ignore (Stream.to_trace (Stream.of_file path));
    Alcotest.fail "expected Parse_error"
  with Trace.Parse_error m ->
    let has sub =
      let n = String.length sub in
      let ok = ref false in
      for i = 0 to String.length m - n do
        if String.sub m i n = sub then ok := true
      done;
      !ok
    in
    Alcotest.(check bool)
      (Printf.sprintf "message %S carries %S" m substring)
      true
      (has path && has substring)

let test_of_file_errors () =
  with_temp_file
    (fun path ->
      let oc = open_out path in
      output_string oc "not a header\n";
      close_out oc)
    (expect_parse_error ~substring:":1:");
  with_temp_file
    (fun path ->
      let oc = open_out path in
      output_string oc "# program=p ndisks=4 tail=0.0\n";
      output_string oc (Request.to_line (List.hd sample_events) ^ "\n");
      output_string oc "io sideways\n";
      close_out oc)
    (expect_parse_error ~substring:":3:");
  with_temp_file
    (fun path ->
      let oc = open_out path in
      output_string oc "# program=p ndisks=2 tail=0.0\n";
      output_string oc
        (Request.to_line
           (Request.Io
              {
                think = 0.0;
                disk = 7;
                block = 0;
                bytes = 512;
                kind = Request.Read;
                nest = 0;
                iter = 0;
              })
        ^ "\n");
      close_out oc)
    (expect_parse_error ~substring:"disk")

(* Lines the simulator cannot replay fail in the reader, naming their
   line, not inside a later replay. *)
let test_of_file_rejects_unreplayable () =
  let good = "io 0.1 1 5 8192 r 0 0" in
  let file header lines path =
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (header ^ "\n");
        List.iter (fun l -> output_string oc (l ^ "\n")) lines)
  in
  let two = "# program=p ndisks=2 tail=0.0" in
  List.iter
    (fun (header, lines, at) ->
      with_temp_file (file header lines) (expect_parse_error ~substring:at))
    [
      (two, [ "io nan 0 0 8192 r 0 0"; good ], ":2:");
      (two, [ good; "io inf 1 5 8192 r 0 0" ], ":3:");
      (two, [ good; "io 0.1 1 5 -8192 r 0 0" ], ":3:");
      (two, [ good; "io 0.1 0 -5 8192 r 0 0" ], ":3:");
      (two, [ good; "io -0.1 0 5 8192 r 0 0" ], ":3:");
      (two, [ good; "pm 0.1 down 7" ], ":3:");
      (two, [ good; "pm 0.1 up -1" ], ":3:");
      (two, [ good; "pm 0.1 rpm -3 0" ], ":3:");
      (two, [ good; "pm 0.1 rpm 1 2" ], ":3:");
      ("# program=p ndisks=1000000000 tail=0.0", [ good ], ":1:");
      (Printf.sprintf "# program=p ndisks=%d tail=0.0" (Trace.max_disks + 1),
       [ good ], ":1:");
      ("# program=p ndisks=2 tail=nan", [ good ], ":1:");
      ("# program=p ndisks=2 tail=-1.0", [ good ], ":1:");
    ];
  (* At the limit, and a level above the top (it clamps at replay). *)
  with_temp_file
    (file
       (Printf.sprintf "# program=p ndisks=%d tail=0.0" Trace.max_disks)
       [ good; "pm 0.1 rpm 99 1" ])
    (fun path ->
      Alcotest.(check int) "rows read" 2
        (Trace.event_count (Trace.load path)))

(* --- Engine equivalence: the core property --- *)

let policies config ~ndisks =
  [
    ("base", fun () -> Policy.base);
    ("tpm", fun () -> Policy.tpm config);
    ("drpm", fun () -> Policy.drpm config ~ndisks);
    ("cm_tpm", fun () -> Policy.cm_tpm);
    ("cm_drpm", fun () -> Policy.cm_drpm);
  ]

let fault_spec = Gen.fault_spec

let replay_pair ?(config = Config.default) ~faults ~batch mk trace =
  let sink_m = Timeline.sink () and sink_s = Timeline.sink () in
  let r_m = Engine.run ~config ~faults ~timeline:sink_m (mk ()) trace in
  let r_s =
    Engine.run_stream ~config ~faults ~timeline:sink_s (mk ())
      (Stream.of_trace ~batch trace)
  in
  ( (r_m, Timeline.events (Timeline.contents sink_m)),
    (r_s, Timeline.events (Timeline.contents sink_s)) )

let gen_trace = Gen.gen_trace

(* The configuration varies too (heterogeneous fleets, every scheduling
   discipline, queue depths): chunk boundaries must stay invisible
   whatever engine path the config selects. *)
let qcheck_engine_equiv =
  QCheck2.Test.make ~count:25
    ~name:
      "stream: Engine.run_stream ≡ Engine.run (policies × batches × faults × \
       configs)"
    QCheck2.Gen.(tup2 gen_trace Gen.gen_config)
    ~print:(fun (trace, config) ->
      Printf.sprintf "%d events, %s"
        (Array.length (Trace.events trace))
        (Gen.config_print config))
    (fun (trace, config) ->
      let ndisks = Trace.ndisks trace in
      List.for_all
        (fun (_, mk) ->
          List.for_all
            (fun batch ->
              List.for_all
                (fun faults ->
                  let (r_m, tl_m), (r_s, tl_s) =
                    replay_pair ~config ~faults ~batch mk trace
                  in
                  r_m = r_s && tl_m = tl_s
                  && r_m.Result.faults = r_s.Result.faults)
                [ Fault.none; fault_spec ])
            [ 1; 7; 4096 ])
        (policies config ~ndisks))

let qcheck_multiprogram_equiv =
  QCheck2.Test.make ~count:15
    ~name:"stream: Engine.run_many_stream ≡ Engine.run_many" gen_trace
    (fun trace ->
      let other =
        Trace.make ~tail_think:0.5 ~program:"bg" ~ndisks:(Trace.ndisks trace)
          sample_events
      in
      List.for_all
        (fun batch ->
          let r_m = Engine.run_many Policy.base [ trace; other ] in
          let r_s =
            Engine.run_many_stream Policy.base
              [ Stream.of_trace ~batch trace; Stream.of_trace ~batch other ]
          in
          r_m = r_s)
        [ 1; 7; 4096 ])

let test_retain_busy_off_equivalent () =
  let trace = sample_trace () in
  let lean = Config.make ~retain_busy:false () in
  let r = Engine.run Policy.base trace in
  let r' = Engine.run ~config:lean Policy.base trace in
  Alcotest.(check (float 1e-12)) "same energy" r.Result.energy r'.Result.energy;
  Alcotest.(check (float 1e-12)) "same exec time" r.Result.exec_time
    r'.Result.exec_time;
  Array.iter
    (fun ds ->
      Alcotest.(check int) "busy intervals dropped" 0
        (List.length ds.Result.busy))
    r'.Result.disks;
  Array.iteri
    (fun d ds ->
      Alcotest.(check int) "same request count" ds.Result.requests
        r'.Result.disks.(d).Result.requests)
    r.Result.disks

(* --- Experiment-level equivalence: all seven schemes, 1 vs 4 domains --- *)

let phased_workload () =
  let p =
    Parser.program ~name:"phased"
      {|
array A[24] : 8192
array B[24] : 8192
for i = 0 to 23 { use A[i] work 600000000 }
for i = 0 to 23 { use B[i] work 600000000 }
|}
  in
  (p, Plan.uniform ~ndisks:8 p)

(* [stream] chooses how a trace file is read: streamed chunk by chunk
   per replay, at any batch and on any domain count, every scheme's
   result equals the load-once replay's.  The file holds the
   CMDRPM-compiled phased trace, so the CM schemes replay its
   directives.  A generated trace is built once whatever [stream] says,
   which [run_all] pins alongside. *)
let test_experiment_stream_equiv () =
  let p, plan = phased_workload () in
  let compiled =
    Dpm_compiler.Pipeline.compile ~scheme:Dpm_compiler.Insertion.Drpm
      ~specs:Config.default.Config.specs p plan
  in
  let trace = Generate.run compiled.Dpm_compiler.Pipeline.program plan in
  Alcotest.(check bool) "the file carries directives" true
    (Trace.pm_count trace > 0);
  with_temp_file (Trace.save trace) (fun path ->
      List.iter
        (fun faults ->
          let replay ?(stream = false) ?batch () =
            match
              Run.exec_all
                (Run.spec ~faults ~stream ?batch (Run.Trace_file path))
            with
            | Ok rs -> rs
            | Error e -> Alcotest.fail (Run.error_message e)
          in
          let materialized = replay () in
          let streamed_per_batch =
            Pool.map ~domains:4
              (fun batch -> replay ~stream:true ~batch ())
              [ 1; 7; 4096 ]
          in
          let single_domain =
            Pool.map ~domains:1
              (fun batch -> replay ~stream:true ~batch ())
              [ 7 ]
          in
          let generated =
            Experiment.run_all ~setup:(Experiment.make_setup ~faults ()) p plan
          in
          let generated_stream =
            Experiment.run_all
              ~setup:(Experiment.make_setup ~faults ~stream:true ~batch:7 ())
              p plan
          in
          List.iter
            (fun (reference, runs) ->
              List.iter
                (fun streamed ->
                  Alcotest.(check int) "seven schemes"
                    (List.length reference) (List.length streamed);
                  List.iter2
                    (fun (s, r_m) (s', r_s) ->
                      Alcotest.(check string) "same scheme order"
                        (Scheme.name s) (Scheme.name s');
                      Alcotest.(check bool)
                        (Scheme.name s ^ ": streaming result byte-identical")
                        true (r_m = r_s))
                    reference streamed)
                runs)
            [
              (materialized, streamed_per_batch @ single_domain);
              (generated, [ generated_stream ]);
            ])
        [ Fault.none; fault_spec ])

(* --- Run facade: Trace_file workload --- *)

let test_run_trace_file () =
  let t = sample_trace () in
  with_temp_file (Trace.save t) (fun path ->
      let results stream =
        match
          Run.exec_all
            (Run.spec
               ~scheme_names:[ "Base"; "TPM"; "DRPM"; "CMDRPM" ]
               ~stream ~batch:3 (Run.Trace_file path))
        with
        | Ok rs -> rs
        | Error e -> Alcotest.fail (Run.error_message e)
      in
      let mat = results false and str = results true in
      List.iter2
        (fun (s, r_m) (_, r_s) ->
          Alcotest.(check bool)
            (Scheme.name s ^ ": trace-file streaming identical")
            true (r_m = r_s))
        mat str)

let test_run_malformed_trace () =
  with_temp_file
    (fun path ->
      let oc = open_out path in
      output_string oc "# program=p ndisks=4 tail=0.0\n";
      output_string oc "garbage line\n";
      close_out oc)
    (fun path ->
      match Run.exec_all (Run.spec (Run.Trace_file path)) with
      | Error (Run.Malformed_trace m) ->
          Alcotest.(check bool) "carries file:line context" true
            (String.length m > 0
            && String.sub m 0 (String.length path) = path)
      | Ok _ -> Alcotest.fail "malformed trace accepted"
      | Error e -> Alcotest.fail ("wrong error: " ^ Run.error_message e));
  match Run.exec_all (Run.spec (Run.Trace_file "/nonexistent/x.trace")) with
  | Error (Run.Run_failure _) | Error (Run.Malformed_trace _) -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error e -> Alcotest.fail ("wrong error: " ^ Run.error_message e)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "stream.producers",
      [
        Alcotest.test_case "of_trace chunking" `Quick test_of_trace_chunking;
        Alcotest.test_case "to_trace round-trip" `Quick test_to_trace_roundtrip;
        Alcotest.test_case "build ≡ make" `Quick test_build_matches_make;
        Alcotest.test_case "of_file round-trip" `Quick test_of_file_roundtrip;
        Alcotest.test_case "of_file errors" `Quick test_of_file_errors;
        Alcotest.test_case "of_file rejects unreplayable lines" `Quick
          test_of_file_rejects_unreplayable;
      ] );
    ( "stream.engine",
      [
        q qcheck_engine_equiv;
        q qcheck_multiprogram_equiv;
        Alcotest.test_case "retain_busy off" `Quick
          test_retain_busy_off_equivalent;
      ] );
    ( "stream.experiment",
      [
        Alcotest.test_case "run_all stream ≡ materialized (1 vs 4 domains)"
          `Slow test_experiment_stream_equiv;
      ] );
    ( "stream.run",
      [
        Alcotest.test_case "trace-file workload" `Quick test_run_trace_file;
        Alcotest.test_case "malformed trace" `Quick test_run_malformed_trace;
      ] );
  ]
