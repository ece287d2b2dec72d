(* Tests for Dpm_util (Rng, Stats, Units, Table) and for the reference
   interval algebra the idle-gap tests compare against. *)

module Rng = Dpm_util.Rng
module Stats = Dpm_util.Stats
module Interval = Interval_ref
module Units = Dpm_util.Units
module Table = Dpm_util.Table

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let sa = List.init 16 (fun _ -> Rng.bits a) in
  let sb = List.init 16 (fun _ -> Rng.bits b) in
  Alcotest.(check bool) "different seeds differ" true (sa <> sb)

let test_rng_split_by_value () =
  let parent = Rng.create 11 in
  let c1 = Rng.split parent "child" in
  let x = Rng.bits c1 in
  (* Splitting again with the same tag gives the same stream: split does
     not advance the parent. *)
  let c2 = Rng.split parent "child" in
  Alcotest.(check int) "split is by value" x (Rng.bits c2);
  let c3 = Rng.split parent "other" in
  Alcotest.(check bool) "tags differ" true (Rng.bits c3 <> x)

let test_rng_int_bounds () =
  let t = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int t 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_zero () =
  let t = Rng.create 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int t 0))

let test_rng_symmetric_range () =
  let t = Rng.create 5 in
  for _ = 1 to 500 do
    let v = Rng.symmetric t 0.25 in
    Alcotest.(check bool) "in [-a,a)" true (v >= -0.25 && v < 0.25)
  done

let test_rng_shuffle_permutation () =
  let t = Rng.create 9 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* --- Stats --- *)

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "empty" 0.0 (Stats.mean [])

let test_stats_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ])

let test_stats_minmax () =
  check_float "min" (-3.0) (Stats.minimum [ 2.0; -3.0; 5.0 ]);
  check_float "max" 5.0 (Stats.maximum [ 2.0; -3.0; 5.0 ]);
  Alcotest.check_raises "empty min" (Invalid_argument "Stats.minimum: empty list")
    (fun () -> ignore (Stats.minimum []))

let test_stats_variance () =
  (* Population variance of {2, 4} is 1. *)
  check_float "variance" 1.0 (Stats.variance [ 2.0; 4.0 ]);
  check_float "stddev of constant" 0.0 (Stats.stddev [ 4.0; 4.0; 4.0 ])

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "p50" 3.0 (Stats.percentile 50.0 xs);
  check_float "p100" 5.0 (Stats.percentile 100.0 xs);
  check_float "p0" 1.0 (Stats.percentile 0.0 xs)

let test_stats_ratio () =
  check_float "ratio" 0.5 (Stats.ratio 1.0 2.0);
  check_float "div by zero" 0.0 (Stats.ratio 1.0 0.0)

let test_stats_accumulator () =
  let a = Stats.acc_create () in
  List.iter (Stats.acc_add a) [ 1.0; 2.0; 3.0 ];
  Alcotest.(check int) "count" 3 (Stats.acc_count a);
  check_float "sum" 6.0 (Stats.acc_sum a);
  check_float "mean" 2.0 (Stats.acc_mean a);
  check_float "min" 1.0 (Stats.acc_min a);
  check_float "max" 3.0 (Stats.acc_max a)

(* --- Interval reference (test/interval_ref.ml) ---

   The merge-then-complement algebra [Result.idle_gaps] is checked
   against; these cases pin the reference itself. *)

let test_interval_normalize () =
  let s = Interval.normalize [ (3.0, 4.0); (1.0, 2.0); (1.5, 3.5) ] in
  Alcotest.(check int) "merged" 1 (List.length s);
  check_float "measure" 3.0 (Interval.measure s)

let test_interval_empty_pairs_dropped () =
  let s = Interval.normalize [ (2.0, 2.0); (5.0, 1.0) ] in
  Alcotest.(check bool) "empty" true (s = [])

let test_interval_complement () =
  let s = Interval.normalize [ (1.0, 2.0); (3.0, 4.0) ] in
  let c = Interval.complement ~lo:0.0 ~hi:5.0 s in
  Alcotest.(check int) "three gaps" 3 (List.length c);
  check_float "gap measure" 3.0 (Interval.measure c)

(* qcheck: interval algebra laws, over pairs inside [0, 110). *)

let pair_list_gen =
  QCheck2.Gen.(
    list_size (int_bound 10)
      (map2 (fun a b -> (a, a +. b)) (float_bound_exclusive 100.0)
         (float_bound_exclusive 10.0)))

let qcheck_interval_complement_involution =
  QCheck2.Test.make ~count:200
    ~name:"interval: complement of complement restores measure"
    pair_list_gen
    (fun l ->
      let s = Interval.normalize l in
      let c = Interval.complement ~lo:0.0 ~hi:200.0 s in
      let cc = Interval.complement ~lo:0.0 ~hi:200.0 c in
      Float.abs (Interval.measure cc -. Interval.measure s) < 1e-6)

let qcheck_interval_partition =
  QCheck2.Test.make ~count:200
    ~name:"interval: s and complement partition the domain" pair_list_gen
    (fun l ->
      let s = Interval.normalize l in
      let c = Interval.complement ~lo:0.0 ~hi:200.0 s in
      (* Together they merge into the whole domain, and their measures
         add up to it, so they cannot overlap. *)
      Interval.normalize (s @ c) = [ (0.0, 200.0) ]
      && Float.abs (Interval.measure s +. Interval.measure c -. 200.0) < 1e-6)

(* --- Units --- *)

let test_units () =
  Alcotest.(check int) "kib" 65536 (Units.kib 64);
  Alcotest.(check int) "mib" 1048576 (Units.mib 1);
  Alcotest.(check int) "bytes_of_mb" (Units.mib 96) (Units.bytes_of_mb 96.0);
  check_float "mb_of_bytes" 1.0 (Units.mb_of_bytes (Units.mib 1));
  check_float "ms" 0.005 (Units.ms 5.0)

(* --- Table --- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t =
    Table.create ~title:"T" ~columns:[ ("a", Table.Left); ("b", Table.Right) ]
  in
  Table.add_row t [ "x"; "1.00" ];
  Table.add_row t [ "long-label"; "2.50" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (contains s "== T ==");
  Alcotest.(check bool) "contains row" true (contains s "long-label");
  Alcotest.(check bool) "cells padded" true (contains s "2.50")

let test_table_wrong_arity () =
  let t = Table.create ~title:"T" ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "x"; "y" ])

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "split by value" `Quick test_rng_split_by_value;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int rejects 0" `Quick test_rng_int_rejects_zero;
        Alcotest.test_case "symmetric range" `Quick test_rng_symmetric_range;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "geomean" `Quick test_stats_geomean;
        Alcotest.test_case "min/max" `Quick test_stats_minmax;
        Alcotest.test_case "variance" `Quick test_stats_variance;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "ratio" `Quick test_stats_ratio;
        Alcotest.test_case "accumulator" `Quick test_stats_accumulator;
      ] );
    ( "util.interval",
      [
        Alcotest.test_case "normalize" `Quick test_interval_normalize;
        Alcotest.test_case "drop empties" `Quick test_interval_empty_pairs_dropped;
        Alcotest.test_case "complement" `Quick test_interval_complement;
        q qcheck_interval_complement_involution;
        q qcheck_interval_partition;
      ] );
    ( "util.units+table",
      [
        Alcotest.test_case "units" `Quick test_units;
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "table arity" `Quick test_table_wrong_arity;
      ] );
  ]
