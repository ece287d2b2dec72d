(* Tests for Dpm_compiler: access analysis, DAP construction, timing
   estimates, power-call insertion, grouping, fission, disk allocation and
   tiling. *)

module Ir = Dpm_ir
module Access = Dpm_compiler.Access
module Dap = Dpm_compiler.Dap
module Estimate = Dpm_compiler.Estimate
module Insertion = Dpm_compiler.Insertion
module Grouping = Dpm_compiler.Grouping
module Fission = Dpm_compiler.Fission
module Disk_alloc = Dpm_compiler.Disk_alloc
module Tiling = Dpm_compiler.Tiling
module Pipeline = Dpm_compiler.Pipeline
module Plan = Dpm_layout.Plan

let specs = Dpm_disk.Specs.ultrastar_36z15
let top = Dpm_disk.Rpm.max_level specs
let parse = Ir.Parser.program ~name:"t"

(* A program with a clear per-disk phase structure: nest 0 touches only
   A (units on disks 0..3), nest 1 only B (disks 4..7). *)
let two_phase () =
  let p =
    parse
      {|
array A[32] : 8192
array B[32] : 8192
for i = 0 to 31 { use A[i] work 800000000 }
for i = 0 to 31 { use B[i] work 800000000 }
|}
  in
  let plan =
    Plan.make ~ndisks:8
      [
        {
          Plan.decl = Ir.Program.find_array p "A";
          striping =
            Dpm_layout.Striping.make ~start_disk:0 ~stripe_factor:4
              ~stripe_size:(Dpm_util.Units.kib 64);
          order = Plan.Row_major;
        };
        {
          Plan.decl = Ir.Program.find_array p "B";
          striping =
            Dpm_layout.Striping.make ~start_disk:4 ~stripe_factor:4
              ~stripe_size:(Dpm_util.Units.kib 64);
          order = Plan.Row_major;
        };
      ]
  in
  (p, plan)

(* --- Access --- *)

let test_access_cached_reflects_misses () =
  let p, plan = two_phase () in
  let acts = Access.of_program_cached ~cache_blocks:192 p plan in
  let a0 = List.nth acts 0 in
  (* 8 KB elements: disk 0 receives unit 0 (elements 0..7) and unit 4
     (elements 32..39 -> beyond A).  A has 4 units on disks 0..3: each
     disk sees exactly one miss, at the iteration touching its unit. *)
  let total =
    Array.fold_left
      (fun acc counts -> acc + Array.fold_left ( + ) 0 counts)
      0 a0.Access.miss_counts
  in
  Alcotest.(check int) "4 cold misses in nest 0" 4 total;
  Alcotest.(check int) "window_requests sums" 4
    (List.fold_left
       (fun acc d -> acc + Access.window_requests a0 ~disk:d ~lo:0 ~hi:31)
       0
       [ 0; 1; 2; 3 ])

let test_access_cached_sees_reuse () =
  (* Two sweeps over a cache-resident array: second sweep shows no
     activity at all. *)
  let p =
    parse
      {|
array A[16] : 8192
for i = 0 to 15 { use A[i] work 100 }
for i = 0 to 15 { use A[i] work 100 }
|}
  in
  let plan = Plan.uniform ~ndisks:8 p in
  let acts = Access.of_program_cached ~cache_blocks:64 p plan in
  let a1 = List.nth acts 1 in
  Array.iter
    (fun runs ->
      Alcotest.(check (list (pair int int))) "second sweep idle" [] runs)
    a1.Access.per_disk

(* --- Dap --- *)

let build_dap ?(cache_blocks = 192) p plan =
  let acts = Access.of_program_cached ~cache_blocks p plan in
  let est = Estimate.profile ~cache_blocks ~specs p plan in
  (Dap.build acts est, acts, est)

let test_dap_windows_alternate_and_partition () =
  let p, plan = two_phase () in
  let dap, _, est = build_dap p plan in
  for disk = 0 to 7 do
    let ws = dap.Dap.windows.(disk) in
    Alcotest.(check bool) "non-empty" true (ws <> []);
    (* Contiguous cover of [0, total]. *)
    let rec walk cursor = function
      | [] -> cursor
      | (w : Dap.window) :: rest ->
          Alcotest.(check (float 1e-9)) "contiguous" cursor w.Dap.t_start;
          walk w.Dap.t_end rest
    in
    let last = walk 0.0 ws in
    Alcotest.(check (float 1e-9)) "covers run" est.Estimate.total last
  done

let test_dap_disk_seven_idle_then_active () =
  let p, plan = two_phase () in
  let dap, _, _ = build_dap p plan in
  match dap.Dap.windows.(7) with
  | first :: _ ->
      Alcotest.(check bool) "starts idle" true (first.Dap.state = Dap.Idle);
      Alcotest.(check bool) "long leading gap" true
        (first.Dap.t_end -. first.Dap.t_start > 10.0)
  | [] -> Alcotest.fail "no windows"

let test_dap_entries_form () =
  let p, plan = two_phase () in
  let dap, _, _ = build_dap p plan in
  let entries = Dap.entries dap ~disk:0 in
  Alcotest.(check bool) "alternating states" true
    (let rec ok = function
       | (_, _, s1) :: ((_, _, s2) :: _ as rest) -> s1 <> s2 && ok rest
       | _ -> true
     in
     ok entries)

(* --- Estimate --- *)

let test_estimate_total_matches_trace () =
  let p, plan = two_phase () in
  let est = Estimate.profile ~cache_blocks:192 ~specs p plan in
  let trace =
    Dpm_trace.Generate.run
      ~config:{ Dpm_trace.Generate.default_config with cache_blocks = 192 }
      p plan
  in
  let service =
    Dpm_disk.Service.request_time specs ~level:top
      ~bytes:(Dpm_util.Units.kib 64)
  in
  let expected =
    Dpm_trace.Trace.total_think trace
    +. (float_of_int (Dpm_trace.Trace.io_count trace) *. service)
  in
  Alcotest.(check (float 1e-6)) "profile total = think + service" expected
    est.Estimate.total

let test_estimate_perturb_properties () =
  let p, plan = two_phase () in
  let est = Estimate.profile ~cache_blocks:192 ~specs p plan in
  let same = Estimate.perturb ~noise:0.0 ~seed:1 est in
  Alcotest.(check (float 1e-9)) "zero noise is identity" est.Estimate.total
    same.Estimate.total;
  let p1 = Estimate.perturb ~noise:0.2 ~seed:1 est in
  let p2 = Estimate.perturb ~noise:0.2 ~seed:1 est in
  Alcotest.(check (float 1e-9)) "deterministic" p1.Estimate.total
    p2.Estimate.total;
  let p3 = Estimate.perturb ~noise:0.2 ~seed:2 est in
  Alcotest.(check bool) "seed matters" true
    (Float.abs (p1.Estimate.total -. p3.Estimate.total) > 1e-9);
  (* Bounded: every duration within (1 +- noise)(1 +- noise/4). *)
  Array.iteri
    (fun i per_item ->
      Array.iteri
        (fun o d ->
          let orig = est.Estimate.durations.(i).(o) in
          Alcotest.(check bool) "bounded" true
            (d >= orig *. 0.75 && d <= orig *. 1.25))
        per_item)
    p1.Estimate.durations

let test_estimate_locate () =
  let p, plan = two_phase () in
  let est = Estimate.profile ~cache_blocks:192 ~specs p plan in
  let item, ord = Estimate.locate est (est.Estimate.total /. 2.0) in
  let start = Estimate.iteration_start est ~item ~ordinal:ord in
  let stop = Estimate.iteration_end est ~item ~ordinal:ord in
  Alcotest.(check bool) "span contains time" true
    (start <= est.Estimate.total /. 2.0 && est.Estimate.total /. 2.0 <= stop);
  Alcotest.(check (pair int int)) "clamps below" (0, 0)
    (Estimate.locate est (-5.0))

(* --- Insertion --- *)

let test_preactivation_distance_formula () =
  Alcotest.(check int) "paper Eq. 1" 11
    (Insertion.preactivation_distance ~t_su:10.9 ~s:1.0 ~t_m:0.01);
  Alcotest.check_raises "zero period"
    (Invalid_argument "preactivation_distance: zero period") (fun () ->
      ignore (Insertion.preactivation_distance ~t_su:1.0 ~s:0.0 ~t_m:0.0))

let test_insertion_tpm_on_two_phase () =
  let p, plan = two_phase () in
  let dap, _, est = build_dap p plan in
  let instrumented, decisions =
    Insertion.insert ~specs Insertion.Tpm p dap est
  in
  (* Each nest runs ~26s, far beyond the 15.2s break-even: the disks of
     the other phase get spin-downs. *)
  Alcotest.(check bool) "decisions exist" true (decisions <> []);
  let calls =
    List.concat_map
      (function
        | Ir.Loop.For l -> Ir.Loop.calls l
        | Ir.Loop.Call c -> [ c ]
        | Ir.Loop.Stmt _ -> [])
      instrumented.Ir.Program.body
  in
  let downs =
    List.length
      (List.filter (function Ir.Loop.Spin_down _ -> true | _ -> false) calls)
  in
  let ups =
    List.length
      (List.filter (function Ir.Loop.Spin_up _ -> true | _ -> false) calls)
  in
  Alcotest.(check bool) "spin downs inserted" true (downs > 0);
  Alcotest.(check bool) "pre-activations inserted" true (ups > 0);
  (* Iteration multiset preserved by strip-mining. *)
  Alcotest.(check int) "same dynamic statements"
    (Enumerate.count_stmt_executions p)
    (Enumerate.count_stmt_executions instrumented)

let test_insertion_nothing_below_break_even () =
  let p =
    parse
      {|
array A[32] : 8192
for i = 0 to 31 { use A[i] work 1000 }
|}
  in
  let plan = Plan.uniform ~ndisks:8 p in
  let dap, _, est = build_dap p plan in
  let _, decisions = Insertion.insert ~specs Insertion.Tpm p dap est in
  Alcotest.(check int) "no TPM decisions on short gaps" 0
    (List.length decisions)

let test_insertion_drpm_levels_valid () =
  let p, plan = two_phase () in
  let dap, _, est = build_dap p plan in
  let instrumented, decisions =
    Insertion.insert ~specs Insertion.Drpm p dap est
  in
  Alcotest.(check bool) "drpm decisions exist" true (decisions <> []);
  List.iter
    (fun (d : Insertion.decision) ->
      Alcotest.(check bool) "level in ladder" true
        (d.plan.Dpm_disk.Power.level >= 0 && d.plan.Dpm_disk.Power.level <= top);
      Alcotest.(check bool) "down before up" true
        (match d.up_at with
        | Some u -> compare u d.down_at > 0
        | None -> true))
    decisions;
  Alcotest.(check int) "same dynamic statements"
    (Enumerate.count_stmt_executions p)
    (Enumerate.count_stmt_executions instrumented)

(* --- Grouping (paper Figure 9/11) --- *)

let figure9 () =
  parse
    {|
array U1[8] : 8192
array U2[8] : 8192
array U3[8] : 8192
array U4[8] : 8192
array U5[8] : 8192
array U6[8] : 8192
array U7[8] : 8192
array U8[8] : 8192
array U9[8] : 8192
array U10[8] : 8192
for i = 0 to 7 {
  U1[i] = U2[i] work 1
  U3[i] = U4[i] work 1
  U6[i] = U7[i] work 1
}
for i = 0 to 7 {
  U5[i] = U1[i] work 1
  U8[i] = U4[i] work 1
}
for i = 0 to 7 {
  U9[i] = U10[i] work 1
}
|}

let test_grouping_figure9 () =
  let p = figure9 () in
  let g = Grouping.of_program p in
  Alcotest.(check int) "four groups" 4 (Grouping.group_count g);
  let groups = Grouping.groups g in
  let find name = List.find (List.mem name) groups in
  Alcotest.(check (list string)) "U1 group" [ "U1"; "U2"; "U5" ] (find "U1");
  Alcotest.(check (list string)) "U3 group" [ "U3"; "U4"; "U8" ] (find "U3");
  Alcotest.(check (list string)) "U6 group" [ "U6"; "U7" ] (find "U6");
  Alcotest.(check (list string)) "U9 group" [ "U10"; "U9" ] (find "U9")

let test_grouping_group_bytes () =
  let p = figure9 () in
  let g = Grouping.of_program p in
  let bytes = Grouping.group_bytes p g in
  Alcotest.(check int) "U1 group bytes" (3 * 8 * 8192)
    bytes.(Grouping.group_of g "U1")

(* --- Fission --- *)

(* The dynamic access sequence restricted to one group must be preserved
   verbatim by fission (distribution never reorders within a group). *)
let group_access_sequence p grouping g =
  let seq = ref [] in
  let cb =
    {
      Enumerate.nothing with
      Enumerate.on_stmt =
        (fun ~nest:_ s env ->
          if Grouping.stmt_group grouping s = g then
            List.iter
              (fun (r : Ir.Reference.t) ->
                seq := (r.Ir.Reference.array, Ir.Reference.eval env r) :: !seq)
              (Ir.Stmt.refs s));
    }
  in
  Enumerate.run cb p;
  List.rev !seq

let test_fission_preserves_group_sequences () =
  let p = figure9 () in
  let g = Grouping.of_program p in
  let p' = Fission.apply p g in
  Alcotest.(check bool) "more nests after fission" true
    (Ir.Program.item_count p' > Ir.Program.item_count p);
  for group = 0 to Grouping.group_count g - 1 do
    Alcotest.(check bool) "group access sequence preserved" true
      (group_access_sequence p g group = group_access_sequence p' g group)
  done

let test_fission_single_group_nest_unchanged () =
  let p =
    parse
      {|
array A[8] : 8192
array B[8] : 8192
for i = 0 to 7 { A[i] = B[i] work 1 }
|}
  in
  let g = Grouping.of_program p in
  Alcotest.(check int) "one group" 1 (Grouping.group_count g);
  (match p.Ir.Program.body with
  | [ Ir.Loop.For l ] ->
      Alcotest.(check bool) "not fissionable" false (Fission.fissionable g l)
  | _ -> Alcotest.fail "shape");
  let p' = Fission.apply p g in
  Alcotest.(check int) "unchanged" (Ir.Program.item_count p)
    (Ir.Program.item_count p')

(* --- Disk_alloc --- *)

let test_disk_alloc_partition () =
  let ranges = Disk_alloc.ranges ~ndisks:8 [| 100; 100; 50; 10 |] in
  let total = Array.fold_left (fun acc (_, n) -> acc + n) 0 ranges in
  Alcotest.(check int) "all disks allocated" 8 total;
  Array.iter
    (fun (_, n) -> Alcotest.(check bool) "at least one disk" true (n >= 1))
    ranges;
  (* Ranges are consecutive and disjoint. *)
  let cursor = ref 0 in
  Array.iter
    (fun (start, n) ->
      Alcotest.(check int) "consecutive" !cursor start;
      cursor := !cursor + n)
    ranges

let test_disk_alloc_proportional () =
  let ranges = Disk_alloc.ranges ~ndisks:8 [| 300; 100 |] in
  Alcotest.(check (pair int int)) "big group" (0, 6) ranges.(0);
  Alcotest.(check (pair int int)) "small group" (6, 2) ranges.(1)

let test_disk_alloc_too_many_groups () =
  Alcotest.check_raises "too many"
    (Invalid_argument "Disk_alloc.ranges: more array groups than disks")
    (fun () -> ignore (Disk_alloc.ranges ~ndisks:2 [| 1; 1; 1 |]))

let test_disk_alloc_plan_groups_disjoint () =
  let p = figure9 () in
  let g = Grouping.of_program p in
  let plan = Disk_alloc.plan ~ndisks:8 p g in
  (* Arrays in different groups share no disks. *)
  let disks name =
    let e = Plan.entry plan name in
    Dpm_layout.Striping.disks_used e.Plan.striping ~ndisks:8
      ~file_bytes:(Ir.Array_decl.size_bytes e.Plan.decl)
  in
  let inter a b = List.filter (fun d -> List.mem d (disks b)) (disks a) in
  Alcotest.(check (list int)) "U1 vs U3 disjoint" [] (inter "U1" "U3");
  Alcotest.(check (list int)) "U1 vs U9 disjoint" [] (inter "U1" "U9");
  Alcotest.(check bool) "same group shares" true (inter "U1" "U2" <> [])

(* --- Tiling --- *)

let tiling_program () =
  parse
    {|
array A[16][16] : 8192
array B[16][16] : 8192
for i = 0 to 15 { for j = 0 to 15 {
  A[i][j] = A[i][j] + B[j][i] work 1
} }
|}

let iteration_multiset p =
  let seq = ref [] in
  let cb =
    {
      Enumerate.nothing with
      Enumerate.on_stmt =
        (fun ~nest:_ _ env -> seq := (env "i", env "j") :: !seq);
    }
  in
  Enumerate.run cb p;
  List.sort compare !seq

let test_tiling_preserves_iterations () =
  let p = tiling_program () in
  let plan = Plan.uniform ~ndisks:8 p in
  let p', _ = Tiling.apply ~dl:false p plan in
  Alcotest.(check bool) "program changed" true
    (Ir.Printer.program p <> Ir.Printer.program p');
  Alcotest.(check bool) "same iteration multiset" true
    (iteration_multiset p = iteration_multiset p')

let test_tiling_conforming_order () =
  let p = tiling_program () in
  match p.Ir.Program.body with
  | [ Ir.Loop.For l ] ->
      (* A is accessed [i][j] with inner j in the last dim: row-major.
         B is accessed [j][i]: inner j in the first dim: column-major. *)
      Alcotest.(check bool) "A row-major" true
        (Tiling.conforming_order l "A" = Some Plan.Row_major);
      Alcotest.(check bool) "B col-major" true
        (Tiling.conforming_order l "B" = Some Plan.Col_major)
  | _ -> Alcotest.fail "shape"

let test_tiling_dl_updates_plan () =
  let p = tiling_program () in
  let plan = Plan.uniform ~ndisks:8 p in
  let _, plan' = Tiling.apply ~dl:true p plan in
  let b = Plan.entry plan' "B" in
  Alcotest.(check bool) "B transposed" true (b.Plan.order = Plan.Col_major);
  let a = Plan.entry plan' "A" in
  Alcotest.(check bool) "stripe set to tile size" true
    (a.Plan.striping.Dpm_layout.Striping.stripe_size >= 4096)

let test_tiling_no_candidate_is_identity () =
  (* A 1-deep nest cannot be tiled. *)
  let p = parse {|
array A[8] : 8192
for i = 0 to 7 { use A[i] work 1 }
|} in
  let plan = Plan.uniform ~ndisks:8 p in
  Alcotest.(check bool) "no candidate" true (Tiling.candidate p plan = None);
  let p', plan' = Tiling.apply ~dl:true p plan in
  Alcotest.(check bool) "identity" true
    (Ir.Printer.program p = Ir.Printer.program p' && plan == plan')

let test_tile_sizes_cover_stripe () =
  let p = tiling_program () in
  match p.Ir.Program.body with
  | [ Ir.Loop.For l ] ->
      let t1, t2 = Tiling.tile_sizes p ~stripe_size:(Dpm_util.Units.kib 64) l in
      Alcotest.(check int) "tile covers a stripe unit" 8 (t1 * t2)
  | _ -> Alcotest.fail "shape"

let test_tiling_apply_all () =
  let p =
    parse
      {|
array A[16][16] : 8192
array B[16][16] : 8192
array C[16][16] : 8192
for i = 0 to 15 { for j = 0 to 15 { A[i][j] = A[i][j] + B[j][i] work 1 } }
for i = 0 to 15 { for j = 0 to 15 { C[i][j] = C[i][j] + C[j][i] work 1 } }
|}
  in
  let plan = Plan.uniform ~ndisks:8 p in
  let p1, _ = Tiling.apply ~dl:true p plan in
  let pall, plan_all = Tiling.apply_all ~dl:true p plan in
  (* apply tiles one nest; apply_all both (the C nest has a symmetric
     dependence, distance (d,-d), so it is conservatively skipped --
     check at least that apply_all tiles no fewer nests than apply). *)
  let tiled_count prog =
    List.length
      (List.filter
         (fun node ->
           match node with
           | Ir.Loop.For l -> Ir.Loop.depth l = 4
           | Ir.Loop.Stmt _ | Ir.Loop.Call _ -> false)
         prog.Ir.Program.body)
  in
  Alcotest.(check bool) "apply_all >= apply" true
    (tiled_count pall >= tiled_count p1);
  Alcotest.(check bool) "iteration multiset preserved" true
    (Enumerate.count_stmt_executions p
    = Enumerate.count_stmt_executions pall);
  Alcotest.(check bool) "B flipped once" true
    ((Plan.entry plan_all "B").Plan.order = Plan.Col_major)

let test_pipeline_tl_all_version () =
  let p = tiling_program () in
  let plan = Plan.uniform ~ndisks:8 p in
  let p', _ = Pipeline.transform Pipeline.TL_ALL_DL p plan in
  Alcotest.(check bool) "changed" true
    (Ir.Printer.program p <> Ir.Printer.program p');
  Alcotest.(check string) "name" "TLall+DL"
    (Pipeline.version_name Pipeline.TL_ALL_DL)

(* --- Pipeline --- *)

let test_pipeline_versions () =
  let p = figure9 () in
  let plan = Plan.uniform ~ndisks:8 p in
  List.iter
    (fun v ->
      let p', plan' = Pipeline.transform v p plan in
      Alcotest.(check int) "same arrays"
        (List.length p.Ir.Program.arrays)
        (List.length p'.Ir.Program.arrays);
      Alcotest.(check int) "same disks" 8 (Plan.ndisks plan'))
    Pipeline.all_versions

let test_pipeline_compile_smoke () =
  let p, plan = two_phase () in
  let compiled = Pipeline.compile ~scheme:Insertion.Drpm ~specs p plan in
  Alcotest.(check bool) "decisions" true
    (compiled.Pipeline.decisions <> []);
  Alcotest.(check (float 1e-9)) "profile is exact when noise=0"
    compiled.Pipeline.estimate.Estimate.total
    compiled.Pipeline.profile.Estimate.total

(* Without [~cache_blocks], the access analysis and the timing profile
   must plan from the cache the trace generator replays with by default
   -- one default, [Generate.default_config.cache_blocks]. *)
let test_pipeline_default_cache () =
  let p, plan =
    Dpm_core.Experiment.workload (Dpm_workloads.Suite.find "galgel")
  in
  let implicit = Pipeline.compile ~scheme:Insertion.Drpm ~specs p plan in
  let explicit =
    Pipeline.compile ~scheme:Insertion.Drpm ~specs
      ~cache_blocks:Dpm_trace.Generate.default_config.cache_blocks p plan
  in
  Alcotest.(check int) "decision count"
    (List.length explicit.Pipeline.decisions)
    (List.length implicit.Pipeline.decisions);
  Alcotest.(check string) "program text"
    (Ir.Printer.program explicit.Pipeline.program)
    (Ir.Printer.program implicit.Pipeline.program);
  Alcotest.(check bool) "decisions" true
    (explicit.Pipeline.decisions = implicit.Pipeline.decisions)

let suite =
  [
    ( "compiler.access",
      [
        Alcotest.test_case "cached misses" `Quick test_access_cached_reflects_misses;
        Alcotest.test_case "cached reuse" `Quick test_access_cached_sees_reuse;
      ] );
    ( "compiler.dap",
      [
        Alcotest.test_case "windows partition" `Quick
          test_dap_windows_alternate_and_partition;
        Alcotest.test_case "idle phases" `Quick test_dap_disk_seven_idle_then_active;
        Alcotest.test_case "entries alternate" `Quick test_dap_entries_form;
      ] );
    ( "compiler.estimate",
      [
        Alcotest.test_case "total matches trace" `Quick
          test_estimate_total_matches_trace;
        Alcotest.test_case "perturb properties" `Quick test_estimate_perturb_properties;
        Alcotest.test_case "locate" `Quick test_estimate_locate;
      ] );
    ( "compiler.insertion",
      [
        Alcotest.test_case "Eq. 1" `Quick test_preactivation_distance_formula;
        Alcotest.test_case "tpm insertion" `Quick test_insertion_tpm_on_two_phase;
        Alcotest.test_case "below break-even" `Quick
          test_insertion_nothing_below_break_even;
        Alcotest.test_case "drpm levels" `Quick test_insertion_drpm_levels_valid;
      ] );
    ( "compiler.grouping",
      [
        Alcotest.test_case "figure 9 groups" `Quick test_grouping_figure9;
        Alcotest.test_case "group bytes" `Quick test_grouping_group_bytes;
      ] );
    ( "compiler.fission",
      [
        Alcotest.test_case "preserves group sequences" `Quick
          test_fission_preserves_group_sequences;
        Alcotest.test_case "single group unchanged" `Quick
          test_fission_single_group_nest_unchanged;
      ] );
    ( "compiler.disk_alloc",
      [
        Alcotest.test_case "partition" `Quick test_disk_alloc_partition;
        Alcotest.test_case "proportional" `Quick test_disk_alloc_proportional;
        Alcotest.test_case "too many groups" `Quick test_disk_alloc_too_many_groups;
        Alcotest.test_case "groups disjoint" `Quick
          test_disk_alloc_plan_groups_disjoint;
      ] );
    ( "compiler.tiling",
      [
        Alcotest.test_case "preserves iterations" `Quick
          test_tiling_preserves_iterations;
        Alcotest.test_case "conforming order" `Quick test_tiling_conforming_order;
        Alcotest.test_case "dl updates plan" `Quick test_tiling_dl_updates_plan;
        Alcotest.test_case "no candidate" `Quick test_tiling_no_candidate_is_identity;
        Alcotest.test_case "tile sizes" `Quick test_tile_sizes_cover_stripe;
        Alcotest.test_case "apply_all" `Quick test_tiling_apply_all;
        Alcotest.test_case "TL_ALL_DL version" `Quick test_pipeline_tl_all_version;
      ] );
    ( "compiler.pipeline",
      [
        Alcotest.test_case "versions" `Quick test_pipeline_versions;
        Alcotest.test_case "compile smoke" `Quick test_pipeline_compile_smoke;
        Alcotest.test_case "default cache" `Quick test_pipeline_default_cache;
      ] );
  ]
