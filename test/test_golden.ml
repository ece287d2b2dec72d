(* Golden-file regression tests: every figure of [Figures.catalogue]
   (Table 2, Figures 3/4 and the other thirteen) is rendered and
   compared byte-for-byte against test/golden/<id>.expected on every
   `dune runtest`, so a perf refactor that silently changes the physics
   (energy, time, request counts) fails loudly.

   To regenerate one after an intentional physics change (the command
   prints one newline after the table, which the golden omits):
     dune exec bin/dpmsim.exe -- figure ID | head -c -1 \
       > test/golden/ID.expected

   The front-half golden (golden/front_half.expected) pins compile and
   trace generation bit-for-bit.  Every run writes the rendered digests
   to front_half.out next to the test binary; after an intentional
   change to either layer, regenerate with
     dune runtest; cp _build/default/test/front_half.out \
       test/golden/front_half.expected

   The timeline-analyses golden (golden/timeline_analyses.expected)
   pins re-integration, the checker, the disk summaries, the Gantt
   lanes, both exports and the power meter bit-for-bit, the same way:
     dune runtest; cp _build/default/test/timeline_analyses.out \
       test/golden/timeline_analyses.expected

   The trace-layer golden (golden/trace_layer.expected) pins the rows,
   tails and block spaces of every stream producer and open-loop merge,
   and the replays of merged streams, bit-for-bit; regenerate with
     dune runtest; cp _build/default/test/trace_layer.out \
       test/golden/trace_layer.expected *)

module Figures = Dpm_core.Figures

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden id (figure : Figures.figure) =
  let path = Filename.concat "golden" (id ^ ".expected") in
  if not (Sys.file_exists path) then
    Alcotest.fail
      (Printf.sprintf "missing golden file %s (run from test/ with dune)" path);
  let expected = read_file path in
  Alcotest.(check string) (id ^ " matches golden") expected figure.rendered

(* [Engine.run_many] has one figure, ext-shared, which prints three
   decimals; this pins its absolute results at full precision.  Inputs
   are the figure's: swim + galgel co-scheduled, plain traces for Base
   and DRPM, DRPM-compiled traces for CMDRPM.  Each scheme runs in open
   and closed mode, with and without the fault spec of `make
   fault-check`. *)
let run_many_rendered () =
  let module Sim = Dpm_sim in
  let module Suite = Dpm_workloads.Suite in
  let specs = Sim.Config.default.Sim.Config.specs in
  let gen p plan =
    Dpm_trace.Generate.run
      ~config:
        {
          Dpm_trace.Generate.cost = Dpm_ir.Cost.default;
          cache_blocks = Suite.cache_blocks;
        }
      p plan
  in
  let plain, compiled =
    List.split
      (List.map
         (fun name ->
           let spec = Suite.find name in
           let p, plan = Dpm_core.Experiment.workload spec in
           let cm =
             Dpm_compiler.Pipeline.compile
               ~scheme:Dpm_compiler.Insertion.Drpm ~noise:spec.Suite.noise
               ~cache_blocks:Suite.cache_blocks ~specs p plan
           in
           (gen p plan, gen cm.Dpm_compiler.Pipeline.program plan))
         [ "swim"; "galgel" ])
  in
  let fault_spec =
    match
      Sim.Fault.of_string "seed=7,read=0.01,bad=0.005,spinfail=0.25,fail=0@30"
    with
    | Ok f -> f
    | Error e -> failwith e
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (mode_name, mode) ->
      List.iter
        (fun (fault_name, faults) ->
          List.iter
            (fun (scheme, policy, traces) ->
              let r = Sim.Engine.run_many ~mode ~faults (policy ()) traces in
              Printf.bprintf buf "%s %s %s energy=%.17g exec_time=%.17g \
                                  requests=%d gap_choices=%d\n"
                mode_name fault_name scheme r.Sim.Result.energy
                r.Sim.Result.exec_time (Sim.Result.requests r)
                (List.length r.Sim.Result.gap_choices))
            [
              ("Base", (fun () -> Sim.Policy.base), plain);
              ( "DRPM",
                (fun () -> Sim.Policy.drpm Sim.Config.default ~ndisks:8),
                plain );
              ("CMDRPM", (fun () -> Sim.Policy.cm_drpm), compiled);
            ])
        [ ("no-faults", Sim.Fault.none); ("faults", fault_spec) ])
    [ ("open", `Open); ("closed", `Closed) ];
  Buffer.contents buf

let test_run_many () =
  let path = Filename.concat "golden" "run_many.expected" in
  Alcotest.(check string) "run_many matches golden" (read_file path)
    (run_many_rendered ())

(* The front half -- compile and trace generation, the layers before
   replay -- at full precision, one line per configuration: digests of
   the generated trace (every event and the tail), the reuse-aware
   access analysis (runs and miss counts), the exact timing profile
   (durations and total), and the CMDRPM-compiled program's text and
   trace.  Floats print with %h, so a one-ulp drift changes a digest.
   Each line also checks that the CMDRPM and CMTPM traces derived from
   the program's log through [Walk.splice] equal the re-walked ones.
   Configurations: the six suite programs at Orig, galgel and mesa
   under LF+DL and TL+DL, all at the suite cache, and galgel Orig with
   caching disabled; then the other four programs under LF+DL and TL+DL
   at the suite cache (every suite-grid cell is pinned), and swim Orig
   with a one-block cache. *)
let front_half_rendered () =
  let module Suite = Dpm_workloads.Suite in
  let module C = Dpm_compiler in
  let module R = Dpm_trace.Request in
  let specs = Dpm_sim.Config.default.Dpm_sim.Config.specs in
  let digest f =
    let b = Buffer.create 4096 in
    f b;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let trace_digest t =
    digest (fun b ->
        Array.iter
          (function
            | R.Io io ->
                Printf.bprintf b "io %h %d %d %d %s %d %d\n" io.R.think
                  io.R.disk io.R.block io.R.bytes
                  (match io.R.kind with R.Read -> "r" | R.Write -> "w")
                  io.R.nest io.R.iter
            | R.Pm { think; directive } ->
                Printf.bprintf b "pm %h %s\n" think
                  (match directive with
                  | R.Spin_down d -> Printf.sprintf "down %d" d
                  | R.Spin_up d -> Printf.sprintf "up %d" d
                  | R.Set_rpm { level; disk } ->
                      Printf.sprintf "rpm %d %d" level disk))
          (Dpm_trace.Trace.events t);
        Printf.bprintf b "tail %h\n" (Dpm_trace.Trace.tail_think t))
  in
  let access_digest acts =
    digest (fun b ->
        List.iter
          (fun (a : C.Access.t) ->
            Array.iteri
              (fun d runs ->
                Printf.bprintf b "%d %d:" a.C.Access.item d;
                List.iter (fun (lo, hi) -> Printf.bprintf b " %d-%d" lo hi) runs;
                Array.iter (Printf.bprintf b " %d") a.C.Access.miss_counts.(d);
                Buffer.add_char b '\n')
              a.C.Access.per_disk)
          acts)
  in
  let profile_digest (e : C.Estimate.t) =
    digest (fun b ->
        Array.iter
          (fun per_item ->
            Array.iter (Printf.bprintf b "%h ") per_item;
            Buffer.add_char b '\n')
          e.C.Estimate.durations;
        Printf.bprintf b "total %h\n" e.C.Estimate.total)
  in
  let line (name, version, cache_blocks) =
    let spec = Suite.find name in
    let p, plan =
      let p, plan = Dpm_core.Experiment.workload spec in
      C.Pipeline.transform version p plan
    in
    let config = { Dpm_trace.Generate.cost = Dpm_ir.Cost.default; cache_blocks } in
    let trace = Dpm_trace.Generate.run ~config p plan in
    let profile = C.Estimate.profile ~cache_blocks ~specs p plan in
    let compile scheme =
      C.Pipeline.compile ~scheme ~noise:spec.Suite.noise ~cache_blocks ~specs p
        plan
    in
    let cm = compile C.Insertion.Drpm in
    let cm_trace = Dpm_trace.Generate.run ~config cm.C.Pipeline.program plan in
    (* A job derives each CM trace from the source program's one log:
       it must equal the re-walk of the compiled program. *)
    let log = Dpm_trace.Walk.log ~cost:Dpm_ir.Cost.default ~cache_blocks p plan in
    let derived (c : C.Pipeline.compiled) =
      Dpm_trace.Generate.of_log (Dpm_trace.Walk.splice log c.C.Pipeline.points)
    in
    let label scheme =
      Printf.sprintf "%s %s cache=%d %s trace through the splice" name
        (C.Pipeline.version_name version)
        cache_blocks scheme
    in
    Alcotest.(check string) (label "CMDRPM") (trace_digest cm_trace)
      (trace_digest (derived cm));
    let cmtpm = compile C.Insertion.Tpm in
    Alcotest.(check string) (label "CMTPM")
      (trace_digest
         (Dpm_trace.Generate.run ~config cmtpm.C.Pipeline.program plan))
      (trace_digest (derived cmtpm));
    Printf.sprintf
      "%s %s cache=%d events=%d trace=%s access=%s profile=%s total=%h \
       cm=%s cm_trace=%s\n"
      name
      (C.Pipeline.version_name version)
      cache_blocks
      (Dpm_trace.Trace.event_count trace)
      (trace_digest trace)
      (access_digest (C.Access.of_program_cached ~cache_blocks p plan))
      (profile_digest profile) profile.C.Estimate.total
      (Digest.to_hex
         (Digest.string (Dpm_ir.Printer.program cm.C.Pipeline.program)))
      (trace_digest cm_trace)
  in
  let c = Suite.cache_blocks in
  String.concat ""
    (List.map line
       (List.map (fun (s : Suite.spec) -> (s.Suite.name, C.Pipeline.Orig, c))
          Suite.all
       @ [
           ("galgel", C.Pipeline.LF_DL, c);
           ("galgel", C.Pipeline.TL_DL, c);
           ("mesa", C.Pipeline.LF_DL, c);
           ("mesa", C.Pipeline.TL_DL, c);
           ("galgel", C.Pipeline.Orig, 0);
         ]
       @ List.concat_map
           (fun name ->
             [ (name, C.Pipeline.LF_DL, c); (name, C.Pipeline.TL_DL, c) ])
           [ "wupwise"; "swim"; "mgrid"; "applu" ]
       @ [ ("swim", C.Pipeline.Orig, 1) ]))

let test_front_half () =
  let rendered = front_half_rendered () in
  Out_channel.with_open_bin "front_half.out" (fun oc ->
      Out_channel.output_string oc rendered);
  let path = Filename.concat "golden" "front_half.expected" in
  if not (Sys.file_exists path) then
    Alcotest.fail
      (Printf.sprintf "missing golden file %s (run from test/ with dune)" path);
  Alcotest.(check string) "front half matches golden" (read_file path) rendered

(* The timeline analyses at full precision, one block per log:
   re-integrated energy per disk and in total, the checker's verdict
   with every message in order, every per-disk summary field, the Gantt
   lanes, and digests of the JSONL and CSV exports and of the 1 s power
   meter's samples.  Floats print with %h.  Logs: galgel under every
   scheme; swim under the fault spec of `make fault-check`; swim on a
   36Z15/flash fleet with faults under four queue disciplines; and
   hand-built illegal logs, including bad aborted-spin-up fractions on
   two disks to pin the order of the checker's messages.  Every run
   writes the rendering to timeline_analyses.out next to the test
   binary; after an intentional change, regenerate with
     dune runtest; cp _build/default/test/timeline_analyses.out \
       test/golden/timeline_analyses.expected *)
let timeline_analyses_rendered () =
  let module Sim = Dpm_sim in
  let module Tl = Sim.Timeline in
  let module Run = Dpm_core.Run in
  let module Scheme = Dpm_core.Scheme in
  let module Specs = Dpm_disk.Specs in
  let buf = Buffer.create 65536 in
  let digest_of_channel write =
    let path = Filename.temp_file "dpm_golden" ".out" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path write;
        Digest.to_hex (Digest.file path))
  in
  let render name tl =
    Printf.bprintf buf "== %s\n" name;
    let e = Tl.reintegrate tl in
    Printf.bprintf buf "energy %h |" e.Tl.total;
    Array.iter (Printf.bprintf buf " %h") e.Tl.per_disk;
    Buffer.add_char buf '\n';
    (match Tl.check tl with
    | Ok () -> Buffer.add_string buf "check ok\n"
    | Error es ->
        Printf.bprintf buf "check %d error(s)\n" (List.length es);
        List.iter (Printf.bprintf buf "  %s\n") es);
    Array.iter
      (fun (s : Tl.disk_summary) ->
        Printf.bprintf buf
          "disk %d busy=%h ready=%h low=%h chg=%h down=%h stby=%h up=%h \
           abort=%h serves=%d mods=%d spdn=%d spup=%d aborts=%d retries=%d \
           remaps=%d redirects=%d killed=%s missed=%d early=%d margin=%h \
           wait=%h\n"
          s.Tl.disk s.Tl.busy s.Tl.ready s.Tl.ready_low s.Tl.changing
          s.Tl.spin_down_time s.Tl.standby s.Tl.spin_up_time s.Tl.aborted_time
          s.Tl.services s.Tl.modulations s.Tl.spin_downs s.Tl.spin_ups
          s.Tl.aborted s.Tl.retries s.Tl.remaps s.Tl.redirects
          (match s.Tl.killed_at with
          | None -> "-"
          | Some t -> Printf.sprintf "%h" t)
          s.Tl.missed_preactivations s.Tl.early_preactivations
          s.Tl.early_margin s.Tl.wait)
      (Tl.disk_summaries tl);
    Buffer.add_string buf (Tl.gantt tl);
    let meter = Sim.Meter.of_timeline ~resolution:1.0 tl in
    let samples = Buffer.create 4096 in
    List.iter
      (fun (s : Sim.Meter.sample) ->
        Printf.bprintf samples "%d %d %h %h %h\n" s.Sim.Meter.disk
          s.Sim.Meter.index s.Sim.Meter.t0 s.Sim.Meter.t1 s.Sim.Meter.watts)
      (Sim.Meter.samples meter);
    Printf.bprintf buf "jsonl %s csv %s meter %s\n"
      (digest_of_channel (Tl.write_jsonl tl))
      (digest_of_channel (Tl.write_csv tl))
      (Digest.to_hex (Digest.string (Buffer.contents samples)))
  in
  let faults =
    match
      Sim.Fault.of_string "seed=7,read=0.01,bad=0.005,spinfail=0.25,fail=0@30"
    with
    | Ok f -> f
    | Error e -> failwith e
  in
  let logged ?sim ?faults label schemes bench =
    let sinks = List.map (fun s -> (s, Tl.sink ())) schemes in
    match
      Run.exec_all
        (Run.spec ~schemes ?sim ?faults
           ~timeline:(fun s -> List.assoc_opt s sinks)
           (Run.Benchmark bench))
    with
    | Error e -> failwith (Run.error_message e)
    | Ok results ->
        List.iter
          (fun (s, _) ->
            render
              (Printf.sprintf "%s %s %s" bench label (Scheme.name s))
              (Tl.contents (List.assoc s sinks)))
          results
  in
  logged "plain" Scheme.extended "galgel";
  logged ~faults "faults"
    Scheme.[ Base; Drpm; Cmdrpm; Itpm; Idrpm ]
    "swim";
  List.iter
    (fun sched ->
      logged ~faults
        ~sim:
          (Sim.Config.make ~fleet:[| Specs.ultrastar_36z15; Specs.flash |]
             ~sched ())
        ("fleet+faults " ^ Sim.Config.sched_name sched)
        Scheme.[ Base; Drpm; Cmdrpm ]
        "swim")
    Sim.Config.[ Sstf; Scan; Clook; Sstf_remap ];
  (* The illegal logs of test_timeline.ml, plus bad fractions. *)
  let built ?(analytic = false) name evs =
    let s = Tl.sink () in
    if analytic then Tl.set_analytic s;
    List.iter (Tl.emit s) evs;
    render name (Tl.contents s)
  in
  let top = Dpm_disk.Rpm.max_level Specs.ultrastar_36z15 in
  let ready ?(disk = 0) a b =
    Tl.Span { disk; state = Tl.Ready top; t0 = a; t1 = b }
  in
  let svc arrival a b =
    Tl.Service { disk = 0; level = top; arrival; t0 = a; t1 = b; bytes = 512 }
  in
  let disp ?(disc = Sim.Config.Sstf) t pos arrival =
    Tl.Mark { disk = 0; t; mark = Tl.Dispatch { disc; pos; arrival } }
  in
  let lane evs = (ready 0.0 10.0 :: evs) @ [ Tl.Sim_end 10.0 ] in
  built "clean lane" [ ready 0.0 1.0; ready 1.0 2.0; Tl.Sim_end 2.0 ];
  built "overlap" [ ready 0.0 1.0; ready 0.9 2.0; Tl.Sim_end 2.0 ];
  built "hole" [ ready 0.0 1.0; ready 1.5 2.0; Tl.Sim_end 2.0 ];
  built "teleport to standby"
    [
      ready 0.0 1.0;
      Tl.Span { disk = 0; state = Tl.Standby; t0 = 1.0; t1 = 2.0 };
      Tl.Sim_end 2.0;
    ];
  built "truncated lane" [ ready 0.0 1.0; Tl.Sim_end 2.0 ];
  built "negative span" [ ready 1.0 0.5 ];
  built "legal sstf lane"
    [
      disp 0.0 2 0.0;
      svc 0.0 0.0 1.0;
      disp 1.0 9 0.0;
      svc 0.0 1.0 2.0;
      ready 2.0 10.0;
      Tl.Sim_end 10.0;
    ];
  built "sstf skip" (lane [ disp 0.5 9 0.0; disp 1.0 2 0.0 ]);
  built "dispatch before arrival" (lane [ disp 0.0 2 1.0 ]);
  built "non-monotone dispatches" (lane [ disp 2.0 2 0.0; disp 1.0 3 0.0 ]);
  built "fcfs reorder"
    (lane
       [
         disp ~disc:Sim.Config.Fcfs 1.0 0 0.9;
         disp ~disc:Sim.Config.Fcfs 2.0 1 0.1;
       ]);
  built "scan reversal"
    (lane
       [
         disp ~disc:Sim.Config.Scan 0.0 5 0.0;
         disp ~disc:Sim.Config.Scan 1.0 2 0.0;
         disp ~disc:Sim.Config.Scan 2.0 7 0.0;
       ]);
  built "c-look wrap"
    (lane
       [
         disp ~disc:Sim.Config.Clook 0.0 5 0.0;
         disp ~disc:Sim.Config.Clook 1.0 3 0.0;
         disp ~disc:Sim.Config.Clook 2.0 1 0.0;
       ]);
  built "idling dispatch"
    [
      disp 0.0 2 0.0;
      svc 0.0 0.0 1.0;
      ready 1.0 5.0;
      disp 5.0 9 0.0;
      svc 0.0 5.0 6.0;
      ready 6.0 10.0;
      Tl.Sim_end 10.0;
    ];
  built ~analytic:true "overlapping services"
    (lane [ svc 0.0 1.0 3.0; svc 0.0 2.0 4.0 ]);
  built "bad fractions"
    [
      ready 0.0 1.0;
      Tl.Aborted { disk = 1; t0 = 0.0; t1 = 0.5; fraction = 1.5 };
      Tl.Aborted { disk = 0; t0 = 1.0; t1 = 1.2; fraction = -0.25 };
      Tl.Span { disk = 1; state = Tl.Standby; t0 = 0.5; t1 = 2.0 };
      ready 1.2 2.0;
      Tl.Aborted { disk = 1; t0 = 2.0; t1 = 2.5; fraction = 2.0 };
      Tl.Sim_end 2.0;
    ];
  Buffer.contents buf

let test_timeline_analyses () =
  let rendered = timeline_analyses_rendered () in
  Out_channel.with_open_bin "timeline_analyses.out" (fun oc ->
      Out_channel.output_string oc rendered);
  let path = Filename.concat "golden" "timeline_analyses.expected" in
  if not (Sys.file_exists path) then
    Alcotest.fail
      (Printf.sprintf "missing golden file %s (run from test/ with dune)" path);
  Alcotest.(check string) "timeline analyses match golden" (read_file path)
    rendered

(* The trace layer -- the stream producers, the open-loop merge and the
   replays of merged streams -- at full precision.  Inputs: the swim and
   galgel traces of [Generate.run] at the suite cache, saved to temp
   files, and three open-loop descriptors over the two files.  Each
   stream line digests every row (think as %h, then the integer
   columns) and prints the tail (%h) and the block-address space, at
   batch 1, 7 and 4096, for [Stream.of_trace], [Stream.of_file] and the
   merge over [of_file] and over [of_trace] tenants.  Each replay line prints %h energy, %h execution time and
   requests from [Run.exec_all] on a descriptor, for every queue
   discipline with and without the fault spec of `make fault-check`,
   and for FCFS also on the reference core and streamed.  Every run
   writes the rendering to trace_layer.out next to the test binary. *)
let trace_layer_rendered () =
  let module Suite = Dpm_workloads.Suite in
  let module Trace = Dpm_trace.Trace in
  let module Stream = Trace.Stream in
  let module Chunk = Stream.Chunk in
  let module Openloop = Dpm_trace.Openloop in
  let module Generate = Dpm_trace.Generate in
  let module Run = Dpm_core.Run in
  let module Scheme = Dpm_core.Scheme in
  let module Sim = Dpm_sim in
  let buf = Buffer.create 4096 in
  let config =
    { Generate.cost = Dpm_ir.Cost.default; cache_blocks = Suite.cache_blocks }
  in
  let traces =
    List.map
      (fun name ->
        let p, plan = Dpm_core.Experiment.workload (Suite.find name) in
        (name, Generate.run ~config p plan))
      [ "swim"; "galgel" ]
  in
  let files =
    List.map
      (fun (name, t) ->
        let path = Filename.temp_file ("dpm_layer_" ^ name) ".trc" in
        Trace.save t path;
        (name, path))
      traces
  in
  let descriptors =
    [
      "rate=0.05,jobs=4,zipf=0.5,seed=4";
      "rate=0.05,jobs=8,zipf=0.5,seed=8";
      "rate=0.1,jobs=3,zipf=0,seed=1";
    ]
  in
  let load d =
    match Openloop.of_string d with
    | Ok (load, _) -> load
    | Error m -> failwith m
  in
  let stream_line label s =
    let rows = Buffer.create 65536 and n = ref 0 in
    let rec drain () =
      match Stream.next_soa s with
      | None -> ()
      | Some c ->
          for i = 0 to Chunk.length c - 1 do
            Printf.bprintf rows "%h %d %d %d %d %d %d\n" (Chunk.think c i)
              (Chunk.tag c i) (Chunk.disk c i) (Chunk.block c i)
              (Chunk.bytes c i) (Chunk.nest c i) (Chunk.iter c i);
            incr n
          done;
          drain ()
    in
    drain ();
    Printf.bprintf buf "%s rows=%d digest=%s tail=%h nblocks=%d\n" label !n
      (Digest.to_hex (Digest.string (Buffer.contents rows)))
      (Stream.tail_think s) (Stream.nblocks s)
  in
  let streams batch =
    List.iter
      (fun (name, t) ->
        stream_line
          (Printf.sprintf "of_trace %s batch=%d" name batch)
          (Stream.of_trace ~batch t))
      traces;
    List.iter
      (fun (name, path) ->
        stream_line
          (Printf.sprintf "of_file %s batch=%d" name batch)
          (Stream.of_file ~batch path))
      files;
    List.iter
      (fun d ->
        let plan = Openloop.plan (load d) ~nsources:2 in
        List.iter
          (fun (kind, tenant) ->
            stream_line
              (Printf.sprintf "merge %s %s batch=%d" kind d batch)
              (Openloop.merge ~batch
                 (Array.to_list plan
                 |> List.map (fun (start, k) -> (start, tenant k)))))
          [
            ("of_file", fun k -> Stream.of_file ~batch (snd (List.nth files k)));
            ("of_trace", fun k -> Stream.of_trace ~batch (snd (List.nth traces k)));
          ])
      descriptors
  in
  let fault_spec =
    match
      Sim.Fault.of_string "seed=7,read=0.01,bad=0.005,spinfail=0.25,fail=0@30"
    with
    | Ok f -> f
    | Error e -> failwith e
  in
  let replays d =
    let workload =
      Run.Open_loop { load = load d; sources = List.map snd files }
    in
    let run label ?core ?stream ~sched ~faults () =
      let spec =
        Run.spec
          ~schemes:Scheme.[ Base; Tpm; Drpm; Idrpm; Cmdrpm ]
          ~sim:(Sim.Config.with_sched sched Sim.Config.default)
          ~faults ?core ?stream workload
      in
      match Run.exec_all spec with
      | Error e -> failwith (Run.error_message e)
      | Ok results ->
          List.iter
            (fun (scheme, (r : Sim.Result.t)) ->
              Printf.bprintf buf "replay %s %s %s energy=%h time=%h requests=%d\n"
                d label (Scheme.name scheme) r.Sim.Result.energy
                r.Sim.Result.exec_time (Sim.Result.requests r))
            results
    in
    List.iter
      (fun (fname, faults) ->
        List.iter
          (fun sched ->
            run (Printf.sprintf "%s %s" (Sim.Sched.name sched) fname) ~sched
              ~faults ())
          Sim.Sched.all;
        run ("fcfs core=reference " ^ fname) ~core:`Reference ~sched:Sim.Sched.Fcfs
          ~faults ();
        run ("fcfs stream " ^ fname) ~stream:true ~sched:Sim.Sched.Fcfs ~faults ())
      [ ("no-faults", Sim.Fault.none); ("faults", fault_spec) ]
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, path) -> Sys.remove path) files)
    (fun () ->
      List.iter streams [ 1; 7; 4096 ];
      List.iter replays descriptors;
      Buffer.contents buf)

let test_trace_layer () =
  let rendered = trace_layer_rendered () in
  Out_channel.with_open_bin "trace_layer.out" (fun oc ->
      Out_channel.output_string oc rendered);
  let path = Filename.concat "golden" "trace_layer.expected" in
  if not (Sys.file_exists path) then
    Alcotest.fail
      (Printf.sprintf "missing golden file %s (run from test/ with dune)" path);
  Alcotest.(check string) "trace layer matches golden" (read_file path) rendered

let suite =
  [
    ( "golden",
      List.map
        (fun (id, f) ->
          Alcotest.test_case id `Slow (fun () -> check_golden id (f ())))
        Figures.catalogue
      @ [
          Alcotest.test_case "run_many" `Quick test_run_many;
          Alcotest.test_case "front half" `Slow test_front_half;
          Alcotest.test_case "timeline analyses" `Slow test_timeline_analyses;
          Alcotest.test_case "trace layer" `Slow test_trace_layer;
        ] );
  ]
