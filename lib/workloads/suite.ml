module Ir = Dpm_ir
module Layout = Dpm_layout

type spec = {
  name : string;
  source : unit -> string;
  noise : float;
  data_mb : float;
  requests : int;
  base_energy_j : float;
  exec_time_s : float;
}

let cache_blocks = 192

let all =
  [
    {
      name = "wupwise";
      source = Wupwise.source;
      noise = 0.08;
      data_mb = 176.7;
      requests = 24_718;
      base_energy_j = 20835.96;
      exec_time_s = 248.790;
    };
    {
      name = "swim";
      source = Swim.source;
      noise = 0.05;
      data_mb = 96.0;
      requests = 3_159;
      base_energy_j = 2686.79;
      exec_time_s = 32.08898;
    };
    {
      name = "mgrid";
      source = Mgrid.source;
      noise = 0.19;
      data_mb = 24.7;
      requests = 12_288;
      base_energy_j = 10600.54;
      exec_time_s = 126.65112;
    };
    {
      name = "applu";
      source = Applu.source;
      noise = 0.07;
      data_mb = 54.7;
      requests = 7_004;
      base_energy_j = 5875.11;
      exec_time_s = 70.14224;
    };
    {
      name = "mesa";
      source = Mesa.source;
      noise = 0.20;
      data_mb = 24.0;
      requests = 3_072;
      base_energy_j = 2667.00;
      exec_time_s = 31.86954;
    };
    {
      name = "galgel";
      source = Galgel.source;
      noise = 0.17;
      data_mb = 16.0;
      requests = 2_048;
      base_energy_j = 1715.37;
      exec_time_s = 20.4788;
    };
  ]

let find name = List.find (fun s -> String.equal s.name name) all

let program spec = Ir.Parser.program ~name:spec.name (spec.source ())

let default_plan ?(ndisks = 8) p = Layout.Plan.uniform ~ndisks p

(* Total work in closed form: the cost model's nest formulas under a
   model that charges only [work], so the sum is integer-exact. *)
let total_work_seconds p =
  let work_only =
    { Ir.Cost.default with Ir.Cost.cycles_per_ref = 0; loop_overhead = 0 }
  in
  Ir.Cost.seconds Ir.Cost.default (Ir.Cost.program_cycles work_only p)

let calibrate ?(specs = Dpm_disk.Specs.ultrastar_36z15) ~target_exec p plan =
  let exact =
    Dpm_compiler.Estimate.profile ~cache_blocks ~specs p plan
  in
  let work_seconds = total_work_seconds p in
  if work_seconds <= 0.0 then
    invalid_arg "Suite.calibrate: program has no work annotations";
  let fixed = exact.Dpm_compiler.Estimate.total -. work_seconds in
  let scale = (target_exec -. fixed) /. work_seconds in
  if scale <= 0.0 then
    invalid_arg
      (Printf.sprintf
         "Suite.calibrate: structural time %.2fs already exceeds target %.2fs"
         fixed target_exec);
  let rescale (s : Ir.Stmt.t) =
    { s with work = int_of_float (Float.round (float_of_int s.work *. scale)) }
  in
  let body =
    List.map
      (fun node ->
        match node with
        | Ir.Loop.For l -> Ir.Loop.For (Ir.Loop.map_stmts rescale l)
        | Ir.Loop.Stmt s -> Ir.Loop.Stmt (rescale s)
        | Ir.Loop.Call c -> Ir.Loop.Call c)
      p.Ir.Program.body
  in
  Ir.Program.with_body p body
