(* Golden-file regression tests: the rendered Table 2 and Figure 3/4
   series are compared byte-for-byte against test/golden/*.expected on
   every `dune runtest`, so a perf refactor that silently changes the
   physics (energy, time, request counts) fails loudly.

   To regenerate after an intentional physics change:
     dune exec bench/main.exe -- table2 fig3 fig4
   and paste each table (including the trailing blank line) into the
   matching golden/<id>.expected.

   The front-half golden (golden/front_half.expected) pins compile and
   trace generation bit-for-bit.  Every run writes the rendered digests
   to front_half.out next to the test binary; after an intentional
   change to either layer, regenerate with
     dune runtest; cp _build/default/test/front_half.out \
       test/golden/front_half.expected *)

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
   Configurations: the six suite programs at Orig, galgel and mesa
   under LF+DL and TL+DL, all at the suite cache, and galgel Orig with
   caching disabled. *)
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
    let cm =
      C.Pipeline.compile ~scheme:C.Insertion.Drpm ~noise:spec.Suite.noise
        ~cache_blocks ~specs p plan
    in
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
      (trace_digest (Dpm_trace.Generate.run ~config cm.C.Pipeline.program plan))
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
         ]))

let test_front_half () =
  let rendered = front_half_rendered () in
  Out_channel.with_open_bin "front_half.out" (fun oc ->
      Out_channel.output_string oc rendered);
  let path = Filename.concat "golden" "front_half.expected" in
  if not (Sys.file_exists path) then
    Alcotest.fail
      (Printf.sprintf "missing golden file %s (run from test/ with dune)" path);
  Alcotest.(check string) "front half matches golden" (read_file path) rendered

let test_table2 () = check_golden "table2" (Figures.table2 ())
let test_fig3 () = check_golden "fig3" (Figures.fig3 ())
let test_fig4 () = check_golden "fig4" (Figures.fig4 ())

let suite =
  [
    ( "golden",
      [
        Alcotest.test_case "table2" `Slow test_table2;
        Alcotest.test_case "fig3" `Slow test_fig3;
        Alcotest.test_case "fig4" `Slow test_fig4;
        Alcotest.test_case "run_many" `Quick test_run_many;
        Alcotest.test_case "front half" `Slow test_front_half;
      ] );
  ]
