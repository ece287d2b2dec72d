(* Golden-file regression tests: the rendered Table 2 and Figure 3/4
   series are compared byte-for-byte against test/golden/*.expected on
   every `dune runtest`, so a perf refactor that silently changes the
   physics (energy, time, request counts) fails loudly.

   To regenerate after an intentional physics change:
     dune exec bench/main.exe -- table2 fig3 fig4
   and paste each table (including the trailing blank line) into the
   matching golden/<id>.expected. *)

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
      ] );
  ]
