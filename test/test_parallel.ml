(* The parallel experiment runner: Pool.map must be observationally
   List.map — same results, same order, same (deterministic) exception —
   whatever the domain count, and the full Figure 3 grid must be
   bit-identical between 1 and 4 domains (the share-nothing audit's
   acceptance test). *)

module Pool = Dpm_util.Pool
module Telemetry = Dpm_util.Telemetry
module Scheme = Dpm_core.Scheme
module Experiment = Dpm_core.Experiment

(* (a) Pool.map = List.map on random functions, sizes and domain counts. *)
let qcheck_map_matches_list_map =
  QCheck2.Test.make ~count:100 ~name:"pool: map matches List.map"
    QCheck2.Gen.(
      quad (int_range 1 6) (int_range 0 64) (int_range (-50) 50)
        (int_range 1 7))
    (fun (domains, size, a, b) ->
      let xs = List.init size (fun i -> i) in
      let f x = (a * x * x) + (b * x) + ((a + b) mod (x + 1)) in
      Pool.map ~domains f xs = List.map f xs)

let test_map_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~domains:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Pool.map ~domains:4 succ [ 1 ])

let test_pool_reuse () =
  let pool = Pool.create ~domains:3 () in
  Alcotest.(check int) "three workers" 3 (Pool.size pool);
  let a = Pool.run pool (fun x -> x * 2) [ 1; 2; 3; 4; 5 ] in
  let b = Pool.run pool string_of_int [ 6; 7; 8 ] in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "first batch" [ 2; 4; 6; 8; 10 ] a;
  Alcotest.(check (list string)) "second batch" [ "6"; "7"; "8" ] b

(* (c) Exceptions in workers surface on the caller — deterministically
   the lowest-indexed one — and the pool survives a failed batch. *)
exception Boom of int

let test_exception_propagation () =
  let pool = Pool.create ~domains:4 () in
  let failing x = if x mod 3 = 0 then raise (Boom x) else x in
  (* Repeated, because which worker pops which task first varies from
     run to run: the reported failure must not. *)
  for _ = 1 to 200 do
    try
      ignore (Pool.run pool failing [ 1; 2; 3; 4; 5; 6; 7 ]);
      Alcotest.fail "expected Boom"
    with Boom x -> Alcotest.(check int) "lowest-indexed failure wins" 3 x
  done;
  (* The failed batch must not wedge the workers. *)
  let ok = Pool.run pool succ [ 10; 20; 30 ] in
  Alcotest.(check (list int)) "pool survives a failed batch" [ 11; 21; 31 ] ok;
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "run after shutdown rejected"
    (Invalid_argument "Pool.run: pool is shut down") (fun () ->
      ignore (Pool.run pool succ [ 1; 2 ]))

let test_map_exception () =
  try
    ignore
      (Pool.map ~domains:4
         (fun x -> if x = 9 then failwith "nine" else x)
         (List.init 32 (fun i -> i)));
    Alcotest.fail "expected Failure"
  with Failure m -> Alcotest.(check string) "message" "nine" m

let test_default_domains () =
  let saved = Pool.default_domains () in
  Alcotest.(check bool) "positive" true (saved >= 1);
  Pool.set_default_domains 3;
  Alcotest.(check int) "override" 3 (Pool.default_domains ());
  Pool.set_default_domains 0;
  Alcotest.(check int) "clamped to 1" 1 (Pool.default_domains ());
  Pool.set_default_domains saved

(* (b) The full Fig. 3 grid (6 workloads x 7 schemes, per-spec noise)
   must produce byte-identical Result records with 1 and 4 domains. *)
let fig3_grid ~domains =
  Pool.map ~domains
    (fun (spec : Dpm_workloads.Suite.spec) ->
      let p, plan = Experiment.workload spec in
      let setup = { Experiment.default_setup with noise = spec.noise } in
      (spec.name, Experiment.run_all ~setup p plan))
    Dpm_workloads.Suite.all

let test_fig3_grid_deterministic () =
  let d1 = fig3_grid ~domains:1 in
  let d4 = fig3_grid ~domains:4 in
  Alcotest.(check int) "grid size" (List.length d1) (List.length d4);
  Alcotest.(check bool) "structurally equal" true (d1 = d4);
  (* Byte-identity, not just (=): NaN-free float payloads serialize to
     the very same bytes when the physics is untouched by scheduling. *)
  Alcotest.(check string) "byte-identical marshalled grids"
    (Digest.to_hex (Digest.string (Marshal.to_string d1 [])))
    (Digest.to_hex (Digest.string (Marshal.to_string d4 [])))

(* Telemetry's stage table and counters: domain-safe accumulation and
   report rendering. *)
let test_metrics_concurrent () =
  let t = Telemetry.create () in
  Telemetry.set_enabled t true;
  ignore
    (Pool.map ~domains:4
       (fun i ->
         Telemetry.span t "work" (fun () -> Telemetry.add t "items" i))
       (List.init 100 (fun i -> i)));
  Alcotest.(check (list (pair string int)))
    "span calls" [ ("work", 100) ]
    (List.map (fun (name, _, calls) -> (name, calls)) (Telemetry.stages t));
  Alcotest.(check (list (pair string int)))
    "counter total" [ ("items", 4950) ] (Telemetry.counters t);
  Alcotest.(check int) "no span records without tracing" 0
    (List.length (Telemetry.spans t));
  Alcotest.(check bool) "report renders" true
    (String.length (Telemetry.report t) > 0)

let test_metrics_disabled_is_noop () =
  let t = Telemetry.create () in
  Alcotest.(check int) "disabled span runs thunk" 3
    (Telemetry.span t "x" (fun () -> 3));
  Telemetry.add t "x" 1;
  Alcotest.(check (list (pair string int)))
    "disabled counter" [] (Telemetry.counters t);
  Alcotest.(check string) "empty report" "" (Telemetry.report t);
  Telemetry.set_enabled t true;
  Telemetry.add t "sim.requests" 1;
  Alcotest.(check (list (pair string int)))
    "re-enabled counter" [ ("sim.requests", 1) ] (Telemetry.counters t);
  (* A throughput line needs both its counter and its stage. *)
  let throughput () =
    List.exists
      (String.starts_with ~prefix:"requests simulated/s: ")
      (String.split_on_char '\n' (Telemetry.report t))
  in
  Alcotest.(check bool) "rate needs both sides" false (throughput ());
  Telemetry.span t "sim.replay" (fun () ->
      let t0 = Telemetry.now () in
      while Telemetry.now () = t0 do
        ()
      done);
  Alcotest.(check bool) "rate once both sides exist" true (throughput ())

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "parallel.pool",
      [
        q qcheck_map_matches_list_map;
        Alcotest.test_case "empty and singleton" `Quick
          test_map_empty_and_singleton;
        Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
        Alcotest.test_case "exception propagation" `Quick
          test_exception_propagation;
        Alcotest.test_case "map exception" `Quick test_map_exception;
        Alcotest.test_case "default domains" `Quick test_default_domains;
      ] );
    ( "parallel.determinism",
      [
        Alcotest.test_case "fig3 grid bit-identical across domain counts"
          `Slow test_fig3_grid_deterministic;
      ] );
    ( "parallel.metrics",
      [
        Alcotest.test_case "concurrent accumulation" `Quick
          test_metrics_concurrent;
        Alcotest.test_case "disabled is a no-op" `Quick
          test_metrics_disabled_is_noop;
      ] );
  ]
