(* Tests for Dpm_disk: the RPM ladder, the power model and its per-gap
   optimization, and the service-time model (checked against the figures
   implied by the paper's Table 2). *)

module Specs = Dpm_disk.Specs
module Rpm = Dpm_disk.Rpm
module Power = Dpm_disk.Power
module Service = Dpm_disk.Service

let specs = Specs.ultrastar_36z15
let top = Rpm.max_level specs
let check_float = Alcotest.(check (float 1e-6))

(* --- Rpm --- *)

let test_rpm_ladder () =
  Alcotest.(check int) "11 levels" 11 (Rpm.num_levels specs);
  Alcotest.(check int) "bottom" 3000 (Rpm.rpm_of_level specs 0);
  Alcotest.(check int) "top" 15000 (Rpm.rpm_of_level specs top);
  Alcotest.(check int) "step" 4200 (Rpm.rpm_of_level specs 1)

let test_rpm_level_of_rpm () =
  Alcotest.(check int) "exact" 0 (Rpm.level_of_rpm specs 3000);
  Alcotest.(check int) "round up" 1 (Rpm.level_of_rpm specs 3001);
  Alcotest.(check int) "clamp low" 0 (Rpm.level_of_rpm specs 100);
  Alcotest.(check int) "clamp high" top (Rpm.level_of_rpm specs 99999)

let test_rpm_transitions () =
  check_float "same level" 0.0 (Rpm.transition_time specs ~from_level:3 ~to_level:3);
  let t1 = Rpm.transition_time specs ~from_level:top ~to_level:0 in
  check_float "full swing" (12000.0 *. specs.Specs.rpm_transition_per_rpm) t1;
  check_float "symmetric" t1 (Rpm.transition_time specs ~from_level:0 ~to_level:top);
  Alcotest.(check bool) "much smaller than spin-up" true
    (t1 < specs.Specs.t_spin_up /. 2.0)

let test_rpm_transition_energy_conservative () =
  (* Charged at the idle power of the faster level involved. *)
  let e = Rpm.transition_energy specs ~from_level:top ~to_level:0 in
  let t = Rpm.transition_time specs ~from_level:top ~to_level:0 in
  check_float "faster-level power" (specs.Specs.p_idle *. t) e

let test_rpm_out_of_range () =
  Alcotest.check_raises "level 11"
    (Invalid_argument "Rpm.rpm_of_level: level 11 out of range") (fun () ->
      ignore (Rpm.rpm_of_level specs 11))

(* --- Power --- *)

let test_power_endpoints () =
  check_float "idle at top" specs.Specs.p_idle (Power.idle specs ~level:top);
  check_float "active at top" specs.Specs.p_active (Power.active specs ~level:top);
  check_float "standby" specs.Specs.p_standby (Power.standby specs)

let test_power_monotone_in_level () =
  for l = 0 to top - 1 do
    Alcotest.(check bool) "idle increases" true
      (Power.idle specs ~level:l < Power.idle specs ~level:(l + 1));
    Alcotest.(check bool) "active increases" true
      (Power.active specs ~level:l < Power.active specs ~level:(l + 1));
    Alcotest.(check bool) "active > idle" true
      (Power.active specs ~level:l > Power.idle specs ~level:l)
  done;
  Alcotest.(check bool) "idle above standby" true
    (Power.idle specs ~level:0 > Power.standby specs)

let test_power_tpm_break_even () =
  let be = Power.tpm_break_even specs in
  (* Hand computation from Table 1:
     (13 + 135 - 2.5 * 12.4) / (10.2 - 2.5) = 15.19s. *)
  Alcotest.(check (float 0.01)) "break-even" 15.19 be;
  (* At the break-even point, spinning down neither wins nor loses. *)
  let plan = Power.best_tpm_plan specs (be +. 1.0) in
  Alcotest.(check bool) "spins beyond break-even" true plan.Power.spin_down;
  let plan2 = Power.best_tpm_plan specs (be -. 1.0) in
  Alcotest.(check bool) "stays below break-even" false plan2.Power.spin_down

let test_power_tpm_plan_energy () =
  let gap = 30.0 in
  let plan = Power.best_tpm_plan specs gap in
  let expected =
    specs.Specs.e_spin_down +. specs.Specs.e_spin_up
    +. (specs.Specs.p_standby
       *. (gap -. specs.Specs.t_spin_down -. specs.Specs.t_spin_up))
  in
  check_float "spin-down energy" expected plan.Power.energy;
  Alcotest.(check bool) "beats staying" true
    (plan.Power.energy < Power.baseline_gap_energy specs gap)

let test_power_drpm_plan_tiny_gap () =
  let plan = Power.best_drpm_plan specs 0.001 in
  Alcotest.(check int) "stays at top" top plan.Power.level;
  Alcotest.(check bool) "no spin" true (not plan.Power.spin_down)

let test_power_drpm_plan_long_gap () =
  let plan = Power.best_drpm_plan specs 60.0 in
  Alcotest.(check bool) "drops deep" true (plan.Power.level <= 1);
  Alcotest.(check bool) "fits" true
    (plan.Power.down_time +. plan.Power.up_time <= 60.0);
  Alcotest.(check bool) "saves" true
    (plan.Power.energy < Power.baseline_gap_energy specs 60.0)

let qcheck_drpm_plan_optimal =
  (* The chosen level beats every other feasible level. *)
  QCheck2.Test.make ~count:200 ~name:"power: best_drpm_plan is argmin"
    QCheck2.Gen.(float_range 0.01 30.0)
    (fun gap ->
      let plan = Power.best_drpm_plan specs gap in
      let energy_at level =
        let down = Rpm.transition_time specs ~from_level:top ~to_level:level in
        let up = Rpm.transition_time specs ~from_level:level ~to_level:top in
        if down +. up > gap then None
        else
          Some
            (Rpm.transition_energy specs ~from_level:top ~to_level:level
            +. Rpm.transition_energy specs ~from_level:level ~to_level:top
            +. (Power.idle specs ~level *. (gap -. down -. up)))
      in
      List.for_all
        (fun l ->
          match energy_at l with
          | None -> true
          | Some e -> plan.Power.energy <= e +. 1e-9)
        (List.init (top + 1) Fun.id))

let qcheck_gap_plan_respects_fit =
  QCheck2.Test.make ~count:200
    ~name:"power: best_gap_plan transitions fit inside the gap"
    QCheck2.Gen.(
      triple (int_range 0 10) (int_range 0 10) (float_range 0.5 20.0))
    (fun (f, t, gap) ->
      let plan = Power.best_gap_plan specs ~from_level:f ~to_level:t gap in
      plan.Power.down_time +. plan.Power.up_time <= gap +. 1e-9
      || plan.Power.level = max f t)

(* The gap selection over a tabulated model equals [best_gap_plan]
   bit for bit, and both equal the selection written out from the Rpm
   and Power primitives: every level whose modulations fit is priced,
   the first of strictly least energy wins, and with none fitting the
   higher endpoint is held with the direct modulation charged. *)
let reference_gap_plan (s : Specs.t) ~from_level ~to_level gap =
  let gap = max 0.0 gap in
  let candidates =
    List.filter_map
      (fun level ->
        let down = Rpm.transition_time s ~from_level ~to_level:level
        and up = Rpm.transition_time s ~from_level:level ~to_level in
        if down +. up > gap then None
        else
          Some
            {
              Power.level;
              spin_down = false;
              energy =
                Rpm.transition_energy s ~from_level ~to_level:level
                +. Rpm.transition_energy s ~from_level:level ~to_level
                +. (Power.idle s ~level *. (gap -. down -. up));
              down_time = down;
              up_time = up;
            })
      (List.init (Rpm.num_levels s) Fun.id)
  in
  match candidates with
  | first :: rest ->
      List.fold_left
        (fun (best : Power.gap_plan) (p : Power.gap_plan) ->
          if p.energy < best.energy then p else best)
        first rest
  | [] ->
      let hold = max from_level to_level in
      {
        Power.level = hold;
        spin_down = false;
        energy =
          (Power.idle s ~level:hold *. gap)
          +. Rpm.transition_energy s ~from_level ~to_level;
        down_time = 0.0;
        up_time = Rpm.transition_time s ~from_level ~to_level;
      }

let show_plan (p : Power.gap_plan) =
  Printf.sprintf "level %d spin_down %b energy %h down %h up %h" p.level
    p.spin_down p.energy p.down_time p.up_time

(* Besides the registry's models, one on which every feasible level
   ties exactly (flat idle power, instant transitions), so the
   tie-break is exercised: the first level must win. *)
let gap_models =
  Specs.all
  @ [
      ( "flat",
        {
          Specs.ultrastar_36z15 with
          p_idle = Specs.ultrastar_36z15.p_standby;
          rpm_transition_per_rpm = 0.0;
        } );
    ]

let qcheck_gap_table_is_best_gap_plan =
  QCheck2.Test.make ~count:600
    ~name:"power: tabulated gap selection is best_gap_plan"
    ~print:(fun (name, f, t, gap) -> Printf.sprintf "%s %d->%d gap %h" name f t gap)
    QCheck2.Gen.(
      let* name, s = oneofl gap_models in
      let top = Rpm.max_level s in
      let* f = int_bound top and* t = int_bound top in
      let round_trip =
        Rpm.transition_time s ~from_level:f ~to_level:0
        +. Rpm.transition_time s ~from_level:0 ~to_level:t
      in
      let* gap =
        oneof
          [
            return 0.0;
            float_range (-100.0) (-1e-9);
            float_bound_inclusive round_trip;
            float_bound_inclusive 1e4;
          ]
      in
      return (name, f, t, gap))
    (fun (name, from_level, to_level, gap) ->
      let s = List.assoc name gap_models in
      let model = Power.gap_model s in
      let table = Power.gap_plan model ~from_level ~to_level gap in
      let scan = Power.best_gap_plan s ~from_level ~to_level gap in
      let reference = reference_gap_plan s ~from_level ~to_level gap in
      let energy = Power.gap_energy model ~from_level ~to_level gap in
      if
        show_plan table = show_plan scan
        && show_plan scan = show_plan reference
        && Printf.sprintf "%h" energy = Printf.sprintf "%h" table.energy
      then true
      else
        QCheck2.Test.fail_reportf "table %s\nbest_gap_plan %s\nreference %s\nenergy %h"
          (show_plan table) (show_plan scan) (show_plan reference) energy)

let test_power_service_level () =
  (* Budget below even full-speed service forces the top level. *)
  Alcotest.(check int) "tight budget" top
    (Power.best_service_level specs ~budget:0.001 ~bytes:(Dpm_util.Units.kib 64));
  (* A huge budget allows the bottom level. *)
  Alcotest.(check int) "loose budget" 0
    (Power.best_service_level specs ~budget:1.0 ~bytes:(Dpm_util.Units.kib 64))

(* --- Service --- *)

let test_service_top_speed_matches_paper () =
  (* 3.4 ms seek + 2.0 ms rotation + 64 KB / 55 MB/s = 6.54 ms: the
     per-request time implied by the paper's Table 2 base numbers. *)
  let t = Service.request_time specs ~level:top ~bytes:(Dpm_util.Units.kib 64) in
  Alcotest.(check (float 1e-4)) "6.54 ms" 6.54e-3 t

let test_service_scales_with_level () =
  let t_top = Service.request_time specs ~level:top ~bytes:(Dpm_util.Units.kib 64) in
  let t_bot = Service.request_time specs ~level:0 ~bytes:(Dpm_util.Units.kib 64) in
  Alcotest.(check bool) "slower at low rpm" true (t_bot > t_top);
  (* Seek is speed-independent: the slowdown is bounded by 5x on the
     rotational and transfer parts. *)
  Alcotest.(check bool) "bounded by 5x" true
    (t_bot < specs.Specs.avg_seek +. (5.0 *. (t_top -. specs.Specs.avg_seek)) +. 1e-9)

let test_service_monotone_in_bytes () =
  let t1 = Service.request_time specs ~level:top ~bytes:(Dpm_util.Units.kib 32) in
  let t2 = Service.request_time specs ~level:top ~bytes:(Dpm_util.Units.kib 64) in
  Alcotest.(check bool) "more bytes, more time" true (t2 > t1)

(* --- Specs: registry and the Table-1 pretty-printer --- *)

let test_specs_pp_golden () =
  (* Pin the full Table 1 block: every field must be printed.  A field
     silently dropped from [Specs.pp] shows up here as a missing line. *)
  let rendered = Format.asprintf "@[<v>%a@]" Specs.pp specs in
  let expected =
    String.concat "\n"
      [
        "Disk Model              IBM Ultrastar 36Z15";
        "Storage Capacity        18 GB";
        "Average seek time       3.4 msec";
        "Average rotation time   2.0 msec";
        "Internal transfer rate  55 MB/sec";
        "Power (active)          13.5 W";
        "Power (idle)            10.2 W";
        "Power (standby)         2.5 W";
        "Energy (spin down)      13 J";
        "Time (spin down)        1.5 sec";
        "Energy (spin up)        135 J";
        "Time (spin up)          10.9 sec";
        "Maximum RPM level       15000 RPM";
        "Minimum RPM level       3000 RPM";
        "RPM Step-Size           1200 RPM";
        "RPM transition time     0.10 msec/RPM";
        "Spindle power exponent  2.8";
        "Window size             30";
      ]
  in
  Alcotest.(check string) "table 1 block" expected rendered

let test_specs_registry () =
  Alcotest.(check int) "three models" 3 (List.length Specs.all);
  List.iter
    (fun (slug, m) ->
      Alcotest.(check string) "name_of inverts registry" slug (Specs.name_of m);
      Alcotest.(check bool) "lookup by slug" true (Specs.of_name_opt slug = Some m);
      Alcotest.(check bool) "lookup by datasheet name" true
        (Specs.of_name_opt m.Specs.model_name = Some m);
      Alcotest.(check bool) "case-insensitive" true
        (Specs.of_name_opt (String.uppercase_ascii slug) = Some m))
    Specs.all;
  Alcotest.(check bool) "unknown model rejected" true
    (Specs.of_name_opt "quantum-bigfoot" = None)

let test_specs_new_models () =
  let lzx = Specs.ultrastar_36lzx in
  Alcotest.(check int) "36lzx has 6 DRPM levels" 6 (Rpm.num_levels lzx);
  Alcotest.(check int) "36lzx top rpm" 10_000 (Rpm.rpm_of_level lzx (Rpm.max_level lzx));
  Alcotest.(check bool) "36lzx slower than 36z15" true
    (lzx.Specs.avg_seek > specs.Specs.avg_seek);
  let flash = Specs.flash in
  Alcotest.(check int) "flash has a single level" 1 (Rpm.num_levels flash);
  check_float "flash zero spin-down energy" 0.0 flash.Specs.e_spin_down;
  check_float "flash zero spin-down time" 0.0 flash.Specs.t_spin_down;
  check_float "flash zero spin-up energy" 0.0 flash.Specs.e_spin_up;
  check_float "flash zero spin-up time" 0.0 flash.Specs.t_spin_up;
  check_float "flash zero rotation" 0.0 flash.Specs.avg_rotation;
  Alcotest.(check bool) "flash cheaper than disks" true
    (flash.Specs.p_active < specs.Specs.p_active
    && flash.Specs.p_active < Specs.ultrastar_36lzx.Specs.p_active)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "disk.specs",
      [
        Alcotest.test_case "pp golden" `Quick test_specs_pp_golden;
        Alcotest.test_case "registry round-trips" `Quick test_specs_registry;
        Alcotest.test_case "new models sane" `Quick test_specs_new_models;
      ] );
    ( "disk.rpm",
      [
        Alcotest.test_case "ladder" `Quick test_rpm_ladder;
        Alcotest.test_case "level_of_rpm" `Quick test_rpm_level_of_rpm;
        Alcotest.test_case "transitions" `Quick test_rpm_transitions;
        Alcotest.test_case "transition energy" `Quick
          test_rpm_transition_energy_conservative;
        Alcotest.test_case "out of range" `Quick test_rpm_out_of_range;
      ] );
    ( "disk.power",
      [
        Alcotest.test_case "endpoints" `Quick test_power_endpoints;
        Alcotest.test_case "monotone" `Quick test_power_monotone_in_level;
        Alcotest.test_case "tpm break-even" `Quick test_power_tpm_break_even;
        Alcotest.test_case "tpm plan energy" `Quick test_power_tpm_plan_energy;
        Alcotest.test_case "drpm tiny gap" `Quick test_power_drpm_plan_tiny_gap;
        Alcotest.test_case "drpm long gap" `Quick test_power_drpm_plan_long_gap;
        Alcotest.test_case "service level" `Quick test_power_service_level;
        q qcheck_drpm_plan_optimal;
        q qcheck_gap_plan_respects_fit;
        q qcheck_gap_table_is_best_gap_plan;
      ] );
    ( "disk.service",
      [
        Alcotest.test_case "paper 6.54ms" `Quick test_service_top_speed_matches_paper;
        Alcotest.test_case "scales with level" `Quick test_service_scales_with_level;
        Alcotest.test_case "monotone in bytes" `Quick test_service_monotone_in_bytes;
      ] );
  ]
