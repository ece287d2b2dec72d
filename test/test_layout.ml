(* Tests for Dpm_layout: striping arithmetic, plans, region queries. *)

module Striping = Dpm_layout.Striping
module Plan = Dpm_layout.Plan
module Array_decl = Dpm_ir.Array_decl
module Parser = Dpm_ir.Parser

let kib = Dpm_util.Units.kib

(* --- Striping --- *)

let test_striping_defaults () =
  let s = Striping.default in
  Alcotest.(check int) "factor" 8 s.Striping.stripe_factor;
  Alcotest.(check int) "size" (kib 64) s.Striping.stripe_size;
  Alcotest.(check int) "start" 0 s.Striping.start_disk

let test_striping_round_robin () =
  let s = Striping.make ~start_disk:2 ~stripe_factor:3 ~stripe_size:(kib 64) in
  let disks = List.init 7 (fun u -> Striping.disk_of_unit s ~ndisks:8 u) in
  Alcotest.(check (list int)) "wraps over factor" [ 2; 3; 4; 2; 3; 4; 2 ] disks

let test_striping_wrap_modulo_ndisks () =
  let s = Striping.make ~start_disk:6 ~stripe_factor:4 ~stripe_size:(kib 64) in
  let disks = List.init 4 (fun u -> Striping.disk_of_unit s ~ndisks:8 u) in
  Alcotest.(check (list int)) "wraps modulo subsystem" [ 6; 7; 0; 1 ] disks

let test_striping_unit_of_offset () =
  let s = Striping.default in
  Alcotest.(check int) "first" 0 (Striping.unit_of_offset s 0);
  Alcotest.(check int) "boundary" 1 (Striping.unit_of_offset s (kib 64));
  Alcotest.(check int) "inside" 0 (Striping.unit_of_offset s (kib 64 - 1))

let test_striping_units_in_file () =
  let s = Striping.default in
  Alcotest.(check int) "exact" 2 (Striping.units_in_file s ~file_bytes:(kib 128));
  Alcotest.(check int) "tail rounds up" 3
    (Striping.units_in_file s ~file_bytes:(kib 128 + 1));
  Alcotest.(check int) "empty" 0 (Striping.units_in_file s ~file_bytes:0)

let test_striping_region_disk_spread () =
  let s = Striping.make ~start_disk:2 ~stripe_factor:3 ~stripe_size:(kib 64) in
  let ndisks = 8 in
  let check ~lo ~hi =
    let spread = Striping.region_disk_spread s ~ndisks ~lo ~hi in
    (* Matches a brute-force walk over the units. *)
    let counts = Array.make ndisks 0 in
    for u = lo to hi do
      let d = Striping.disk_of_unit s ~ndisks u in
      counts.(d) <- counts.(d) + 1
    done;
    let expected =
      List.filter
        (fun (_, n) -> n > 0)
        (List.init ndisks (fun d -> (d, counts.(d))))
    in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "spread [%d,%d]" lo hi)
      expected spread;
    Alcotest.(check int)
      "accounts for every unit"
      (max 0 (hi - lo + 1))
      (List.fold_left (fun acc (_, n) -> acc + n) 0 spread)
  in
  check ~lo:0 ~hi:0;
  check ~lo:0 ~hi:2;
  check ~lo:1 ~hi:13;
  check ~lo:5 ~hi:100;
  Alcotest.(check (list (pair int int)))
    "empty region" []
    (Striping.region_disk_spread s ~ndisks ~lo:4 ~hi:3)

let test_striping_disks_used () =
  let s = Striping.make ~start_disk:0 ~stripe_factor:4 ~stripe_size:(kib 64) in
  Alcotest.(check (list int)) "small file" [ 0; 1 ]
    (Striping.disks_used s ~ndisks:8 ~file_bytes:(kib 128));
  Alcotest.(check (list int)) "big file saturates factor" [ 0; 1; 2; 3 ]
    (Striping.disks_used s ~ndisks:8 ~file_bytes:(kib 1024))

let test_striping_validation () =
  Alcotest.check_raises "factor too big"
    (Invalid_argument "Striping.disk_of_unit: stripe factor exceeds disk count")
    (fun () ->
      ignore
        (Striping.disk_of_unit
           (Striping.make ~start_disk:0 ~stripe_factor:9 ~stripe_size:1)
           ~ndisks:8 0))

(* --- Plan --- *)

let program_2d () =
  Parser.program ~name:"t"
    {|
array A[4][16] : 8192
array B[32] : 8192
for i = 0 to 3 { for j = 0 to 15 { A[i][j] = B[2*i] work 1 } }
|}

let test_plan_element_offset_orders () =
  let p = program_2d () in
  let plan = Plan.uniform ~ndisks:8 p in
  Alcotest.(check int) "row major" (((1 * 16) + 2) * 8192)
    (Plan.element_offset plan "A" [ 1; 2 ]);
  let plan' = Plan.set_order plan "A" Plan.Col_major in
  Alcotest.(check int) "col major" (((2 * 4) + 1) * 8192)
    (Plan.element_offset plan' "A" [ 1; 2 ])

let test_plan_unit_mapping () =
  let p = program_2d () in
  let plan = Plan.uniform ~ndisks:8 p in
  (* 8 KB elements, 64 KB units: 8 elements per unit. *)
  Alcotest.(check int) "unit of element 0" 0 (Plan.element_unit plan "A" [ 0; 0 ]);
  Alcotest.(check int) "unit of element 8" 1 (Plan.element_unit plan "A" [ 0; 8 ]);
  Alcotest.(check int) "unit count A" 8 (Plan.unit_count plan "A");
  Alcotest.(check int) "unit count B" 4 (Plan.unit_count plan "B")

let test_plan_global_blocks_disjoint () =
  let p = program_2d () in
  let plan = Plan.uniform ~ndisks:8 p in
  let a_blocks = List.init 8 (Plan.unit_global_block plan "A") in
  let b_blocks = List.init 4 (Plan.unit_global_block plan "B") in
  let all = a_blocks @ b_blocks in
  Alcotest.(check int) "disjoint global blocks" (List.length all)
    (List.length (List.sort_uniq compare all))

let qcheck_unit_disk_consistent =
  QCheck2.Test.make ~count:300
    ~name:"plan: element unit/disk consistent with striping arithmetic"
    QCheck2.Gen.(pair (int_range 0 3) (int_range 0 15))
    (fun (i, j) ->
      let p = program_2d () in
      let plan = Plan.uniform ~ndisks:8 p in
      let u = Plan.element_unit plan "A" [ i; j ] in
      let entry = Plan.entry plan "A" in
      Plan.unit_disk plan "A" u
      = Striping.disk_of_unit entry.Plan.striping ~ndisks:8 u)

let test_plan_colmajor_unit_layout () =
  let p = program_2d () in
  let plan = Plan.set_order (Plan.uniform ~ndisks:8 p) "A" Plan.Col_major in
  (* Column-major: consecutive rows of one column are contiguous.  A is
     4x16 with 8KB elements: one column (4 elements, 32KB) is half a
     64KB unit, so columns 0 and 1 share unit 0. *)
  Alcotest.(check int) "col 0 top" 0 (Plan.element_unit plan "A" [ 0; 0 ]);
  Alcotest.(check int) "col 0 bottom" 0 (Plan.element_unit plan "A" [ 3; 0 ]);
  Alcotest.(check int) "col 1" 0 (Plan.element_unit plan "A" [ 0; 1 ]);
  Alcotest.(check int) "col 2" 1 (Plan.element_unit plan "A" [ 0; 2 ])

let test_plan_duplicate_rejected () =
  let decl = Array_decl.make ~name:"A" ~dims:[ 4 ] ~elem_size:8 in
  let entry =
    { Plan.decl; striping = Striping.default; order = Plan.Row_major }
  in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Plan.make: duplicate array A") (fun () ->
      ignore (Plan.make ~ndisks:8 [ entry; entry ]))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "layout.striping",
      [
        Alcotest.test_case "defaults" `Quick test_striping_defaults;
        Alcotest.test_case "round robin" `Quick test_striping_round_robin;
        Alcotest.test_case "wrap modulo" `Quick test_striping_wrap_modulo_ndisks;
        Alcotest.test_case "unit of offset" `Quick test_striping_unit_of_offset;
        Alcotest.test_case "units in file" `Quick test_striping_units_in_file;
        Alcotest.test_case "region disk spread" `Quick
          test_striping_region_disk_spread;
        Alcotest.test_case "disks used" `Quick test_striping_disks_used;
        Alcotest.test_case "validation" `Quick test_striping_validation;
      ] );
    ( "layout.plan",
      [
        Alcotest.test_case "element offsets" `Quick test_plan_element_offset_orders;
        Alcotest.test_case "unit mapping" `Quick test_plan_unit_mapping;
        Alcotest.test_case "global blocks disjoint" `Quick
          test_plan_global_blocks_disjoint;
        Alcotest.test_case "duplicate rejected" `Quick test_plan_duplicate_rejected;
        Alcotest.test_case "col-major units" `Quick
          test_plan_colmajor_unit_layout;
        q qcheck_unit_disk_consistent;
      ] );
  ]
