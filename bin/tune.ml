(* Workload calibration report: compares each benchmark's measured
   characteristics against the paper's Table 2 targets, summarizes the
   idle-gap structure, and prints the per-scheme normalized energy and
   execution time (the Figure 3/4 shape, via [Sweep.normalized_table]). *)

module Telemetry = Dpm_util.Telemetry
module Run = Dpm_core.Run
module Scheme = Dpm_core.Scheme
module Sweep = Dpm_core.Sweep

let () =
  let specs = Dpm_sim.Config.default.Dpm_sim.Config.specs in
  Printf.printf "TPM break-even: %.2f s\n"
    (Dpm_disk.Power.tpm_break_even specs);
  Printf.printf "%-9s %9s %9s %9s %9s %10s %10s %8s %8s\n" "bench" "req"
    "req*" "time" "time*" "energy" "energy*" "MB" "MB*";
  let rows = ref [] in
  List.iter
    (fun (spec : Dpm_workloads.Suite.spec) ->
      let t0 = Telemetry.now () in
      let p, plan = Dpm_core.Experiment.workload spec in
      let setup = Dpm_core.Experiment.make_setup ~noise:spec.noise () in
      let results =
        match Run.exec_all (Run.spec ~setup (Run.Program (p, plan))) with
        | Ok results -> results
        | Error e ->
            Dpm_util.Log.error ~scope:"tune" (Run.error_message e);
            exit 2
      in
      let wall = Telemetry.now () -. t0 in
      let base = List.assoc Scheme.Base results in
      let mb =
        Dpm_util.Units.mb_of_bytes (Dpm_ir.Program.total_data_bytes p)
      in
      Printf.printf
        "%-9s %9d %9d %9.2f %9.2f %10.1f %10.1f %8.2f %8.1f  (%.1fs wall)\n%!"
        spec.name
        (Dpm_sim.Result.requests base)
        spec.requests base.Dpm_sim.Result.exec_time spec.exec_time_s
        base.Dpm_sim.Result.energy spec.base_energy_j mb spec.data_mb wall;
      let all_gaps = ref [] in
      for d = 0 to 7 do
        all_gaps :=
          List.map
            (fun (a, b) -> b -. a)
            (Dpm_sim.Result.idle_gaps base ~disk:d)
          @ !all_gaps
      done;
      let gaps = List.filter (fun g -> g > 0.5) !all_gaps in
      if gaps <> [] then
        Printf.printf
          "          gaps>0.5s: n=%d mean=%.2fs max=%.2fs total=%.1fs (%.0f%% of disk-time)\n%!"
          (List.length gaps) (Dpm_util.Stats.mean gaps)
          (Dpm_util.Stats.maximum gaps)
          (Dpm_util.Stats.total gaps)
          (100.0
          *. Dpm_util.Stats.total gaps
          /. (8.0 *. base.Dpm_sim.Result.exec_time));
      let mis = Dpm_core.Experiment.misprediction_pct ~setup p plan in
      rows := (spec.name, results, mis) :: !rows)
    Dpm_workloads.Suite.all;
  let rows = List.rev !rows in
  let table = List.map (fun (name, results, _) -> (name, results)) rows in
  let mispred name =
    List.find_map
      (fun (n, _, mis) -> if n = name then Some mis else None)
      rows
  in
  Printf.printf "\nNormalized energy (Fig 3 shape):\n";
  print_string
    (Sweep.normalized_table ~metric:`Energy ~schemes:Scheme.all
       ~extra:("mispred%", mispred) table);
  Printf.printf "\nNormalized execution time (Fig 4 shape):\n";
  print_string
    (Sweep.normalized_table ~metric:`Time ~schemes:Scheme.all table)
