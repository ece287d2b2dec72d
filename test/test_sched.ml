(* Heterogeneous fleets + pluggable per-disk request scheduling — the
   PR's differential/property pin layer.

   Three families of guarantees:

   - FCFS is the seed engine: under the default (FCFS) discipline the
     deferred-dispatch module never engages, and the reference core must
     stay byte-identical to the fast SoA core (which is the pre-fleet
     engine's replay body) on results, timeline event lists and fault
     counters — over random traces, all seven policy shapes, batch
     sizes, faults on/off and 1-vs-4 experiment domains.

   - A homogeneous fleet is the legacy configuration: filling
     [Config.fleet] with copies of the primary model must change
     nothing.

   - The deferred disciplines (SSTF/SCAN/C-LOOK/SSTF-remap) are legal
     and starvation-free: every replay passes the extended
     {!Timeline.check} per-queue invariants, and on fault-free
     workloads every I/O event is served exactly once. *)

module Request = Dpm_trace.Request
module Trace = Dpm_trace.Trace
module Stream = Trace.Stream
module Engine = Dpm_sim.Engine
module Policy = Dpm_sim.Policy
module Config = Dpm_sim.Config
module Sched = Dpm_sim.Sched
module Fault = Dpm_sim.Fault
module Timeline = Dpm_sim.Timeline
module Result = Dpm_sim.Result
module Specs = Dpm_disk.Specs
module Experiment = Dpm_core.Experiment
module Scheme = Dpm_core.Scheme
module Pool = Dpm_util.Pool

(* Policies are built fresh per replay: the reactive ones carry mutable
   controller state that must not leak across runs. *)
let policies config ~ndisks =
  [
    ("base", fun () -> Policy.base);
    ("tpm", fun () -> Policy.tpm config);
    ("tpm_adaptive", fun () -> Policy.tpm_adaptive config ~ndisks);
    ("drpm", fun () -> Policy.drpm config ~ndisks);
    ("adaptive", fun () -> Policy.adaptive config ~ndisks);
    ("cm_tpm", fun () -> Policy.cm_tpm);
    ("cm_drpm", fun () -> Policy.cm_drpm);
  ]

let replay ?(config = Config.default) ?sink ~core ~faults ~batch mk trace =
  Engine.run_stream ~config ~faults ?timeline:sink ~core (mk ())
    (Stream.of_trace ~batch trace)

let io_count trace =
  Array.fold_left
    (fun n e -> match e with Request.Io _ -> n + 1 | Request.Pm _ -> n)
    0 (Trace.events trace)

(* --- FCFS ≡ the pre-fleet engine --- *)

let qcheck_fcfs_differential =
  QCheck2.Test.make ~count:20
    ~name:"sched: FCFS reference ≡ fast (policies × batches × faults)"
    Gen.gen_trace
    (fun trace ->
      let config = Config.with_sched Config.Fcfs Config.default in
      let ndisks = Trace.ndisks trace in
      List.for_all
        (fun (_, mk) ->
          List.for_all
            (fun batch ->
              List.for_all
                (fun faults ->
                  let sink_r = Timeline.sink () and sink_f = Timeline.sink () in
                  let r_ref =
                    replay ~config ~sink:sink_r ~core:`Reference ~faults ~batch
                      mk trace
                  in
                  let r_fast =
                    replay ~config ~sink:sink_f ~core:`Fast ~faults ~batch mk
                      trace
                  in
                  r_ref = r_fast
                  && r_ref.Result.faults = r_fast.Result.faults
                  && Timeline.events (Timeline.contents sink_r)
                     = Timeline.events (Timeline.contents sink_f))
                [ Fault.none; Gen.fault_spec ])
            [ 1; 7; 4096 ])
        (policies config ~ndisks))

(* All seven schemes at the experiment level, fanned over 1 vs 4
   domains: the FCFS rows of the grid must not depend on the domain
   count or the core. *)
let test_fcfs_experiment_domains () =
  let trace = Gen.busy_trace ~think:0.4 ~n:60 ~ndisks:4 () in
  let results core domains =
    Pool.map ~domains
      (fun batch ->
        Experiment.replay_all
          ~setup:
            (Experiment.make_setup
               ~sim:(Config.with_sched Config.Fcfs Config.default)
               ~core ~batch ())
          (fun () -> Stream.of_trace ~batch trace))
      [ 1; 7 ]
  in
  let reference = results `Reference 1 in
  List.iter
    (fun other ->
      List.iter2
        (fun per_batch_ref per_batch_other ->
          List.iter2
            (fun (s, r_ref) (s', r_other) ->
              Alcotest.(check string) "same scheme order" (Scheme.name s)
                (Scheme.name s');
              Alcotest.(check bool)
                (Scheme.name s ^ ": domain/core invariant")
                true (r_ref = r_other))
            per_batch_ref per_batch_other)
        reference other)
    [ results `Fast 1; results `Fast 4; results `Reference 4 ]

(* --- Homogeneous fleet ≡ legacy --- *)

let qcheck_homogeneous_fleet_legacy =
  QCheck2.Test.make ~count:15
    ~name:"sched: homogeneous fleet ≡ empty fleet (policies × cores)"
    QCheck2.Gen.(tup2 Gen.gen_trace (int_range 1 3))
    (fun (trace, copies) ->
      let specs = Config.default.Config.specs in
      let hom =
        Config.with_fleet (Array.make copies specs) Config.default
      in
      let ndisks = Trace.ndisks trace in
      List.for_all
        (fun (_, mk) ->
          List.for_all
            (fun core ->
              let r_legacy =
                replay ~core ~faults:Gen.fault_spec ~batch:16 mk trace
              in
              let r_hom =
                replay ~config:hom ~core ~faults:Gen.fault_spec ~batch:16 mk
                  trace
              in
              r_legacy = r_hom)
            [ `Reference; `Fast ])
        (policies Config.default ~ndisks))

(* --- Deferred disciplines: legality and starvation-freedom --- *)

let qcheck_sched_legal =
  QCheck2.Test.make ~count:15
    ~name:
      "sched: every discipline passes Timeline.check (configs × faults)"
    QCheck2.Gen.(tup2 Gen.gen_trace Gen.gen_config)
    ~print:(fun (trace, config) ->
      Printf.sprintf "%d events, %s"
        (Array.length (Trace.events trace))
        (Gen.config_print config))
    (fun (trace, config) ->
      List.for_all
        (fun faults ->
          List.for_all
            (fun (name, mk) ->
              let sink = Timeline.sink () in
              ignore (replay ~config ~sink ~core:`Fast ~faults ~batch:8 mk trace);
              match Timeline.check (Timeline.contents sink) with
              | Ok () -> true
              | Error msgs ->
                  QCheck2.Test.fail_reportf "%s/%s: %s" name
                    (Config.sched_name config.Config.sched)
                    (String.concat "; " msgs))
            [
              ("base", fun () -> Policy.base);
              ("tpm", fun () -> Policy.tpm config);
              ( "drpm",
                fun () -> Policy.drpm config ~ndisks:(Trace.ndisks trace) );
              ("cm_drpm", fun () -> Policy.cm_drpm);
            ])
        [ Fault.none; Gen.fault_spec ])

(* Work conservation / bounded starvation: on a fault-free workload,
   every I/O event is served exactly once under every discipline, and
   the run terminates with a finite makespan even with a queue depth of
   one (every enqueue forces a dispatch). *)
let qcheck_no_starvation =
  QCheck2.Test.make ~count:25
    ~name:"sched: every request completes (disciplines × depths, no faults)"
    QCheck2.Gen.(tup2 Gen.gen_trace (oneofl [ 1; 3; 32 ]))
    (fun (trace, depth) ->
      let expect = io_count trace in
      List.for_all
        (fun sched ->
          let config =
            Config.default
            |> Config.with_sched sched
            |> Config.with_queue_depth depth
          in
          let r =
            replay ~config ~core:`Reference ~faults:Fault.none ~batch:16
              (fun () -> Policy.base)
              trace
          in
          Result.requests r = expect
          && Float.is_finite r.Result.exec_time
          && r.Result.exec_time >= 0.0)
        Sched.all)

(* Adversarial starvation bait for SSTF/SCAN: a hot cluster of
   same-position requests plus one far outlier per disk.  Nearest-first
   must still serve the outlier (the queue bound forces it through). *)
let test_sstf_serves_outlier () =
  let events =
    List.concat_map
      (fun disk ->
        Gen.io ~think:0.0 ~disk ~block:63 ()
        :: List.init 40 (fun i ->
               Gen.io ~think:(if i = 0 then 0.0 else 0.001) ~disk ~block:1 ()))
      [ 0; 1 ]
  in
  let trace = Trace.make ~tail_think:0.1 ~program:"bait" ~ndisks:2 events in
  List.iter
    (fun sched ->
      let config =
        Config.default
        |> Config.with_sched sched
        |> Config.with_queue_depth 4
      in
      let sink = Timeline.sink () in
      let r =
        replay ~config ~sink ~core:`Reference ~faults:Fault.none ~batch:8
          (fun () -> Policy.base)
          trace
      in
      Alcotest.(check int)
        (Config.sched_name sched ^ " serves all requests")
        (io_count trace) (Result.requests r);
      match Timeline.check (Timeline.contents sink) with
      | Ok () -> ()
      | Error msgs ->
          Alcotest.failf "%s: %s" (Config.sched_name sched)
            (String.concat "; " msgs))
    [ Sched.Sstf; Sched.Scan; Sched.Clook; Sched.Sstf_remap ]

(* --- Both cores under every discipline --- *)

let test_fastpath_fallback () =
  List.iter
    (fun sched ->
      let config = Config.with_sched sched Config.default in
      (* Whatever the discipline, asking for the fast core must not
         change the answer. *)
      let trace = Gen.busy_trace ~think:0.01 ~n:50 ~ndisks:4 () in
      let r_ref =
        replay ~config ~core:`Reference ~faults:Gen.fault_spec ~batch:8
          (fun () -> Policy.base)
          trace
      in
      let r_fast =
        replay ~config ~core:`Fast ~faults:Gen.fault_spec ~batch:8
          (fun () -> Policy.base)
          trace
      in
      Alcotest.(check bool)
        (Config.sched_name sched ^ ": core-independent")
        true (r_ref = r_fast))
    Sched.all

(* run_many models a shared arrival queue with FCFS semantics only. *)
let test_run_many_rejects_non_fcfs () =
  let trace = Gen.busy_trace ~think:0.01 ~n:10 ~ndisks:2 () in
  let config = Config.with_sched Config.Sstf Config.default in
  Alcotest.check_raises "run_many rejects SSTF"
    (Invalid_argument "Engine.run_many: only the FCFS scheduler is supported")
    (fun () ->
      ignore (Engine.run_many ~config Policy.base [ trace ]))

(* --- Registry sanity --- *)

let test_registry () =
  Alcotest.(check int) "five disciplines" 5 (List.length Sched.all);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Sched.name s ^ " round-trips")
        true
        (Sched.of_name_opt (Sched.name s) = Some s))
    Sched.all;
  Alcotest.(check bool) "clook alias" true
    (Config.sched_of_name_opt "clook" = Some Config.Clook);
  Alcotest.(check bool) "case/space insensitive" true
    (Config.sched_of_name_opt " SSTF-Remap " = Some Config.Sstf_remap);
  Alcotest.(check bool) "unknown rejected" true
    (Config.sched_of_name_opt "elevator" = None)

(* Non-FCFS on a seekful workload must not reorder across think-time
   dependencies so grossly that energy goes negative or time shrinks
   below the busy floor — a coarse sanity pin on the deferred engine's
   accounting. *)
let test_deferred_accounting_sane () =
  let trace = Gen.busy_trace ~think:0.005 ~n:400 ~ndisks:4 () in
  List.iter
    (fun sched ->
      let config = Config.with_sched sched Config.default in
      let r =
        replay ~config ~core:`Reference ~faults:Fault.none ~batch:64
          (fun () -> Policy.base)
          trace
      in
      Alcotest.(check bool)
        (Config.sched_name sched ^ " positive energy")
        true (r.Result.energy > 0.0);
      Alcotest.(check bool)
        (Config.sched_name sched ^ " positive exec time")
        true
        (r.Result.exec_time > 0.0))
    Sched.all

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "sched.differential",
      [
        q qcheck_fcfs_differential;
        Alcotest.test_case "experiment grid (1 vs 4 domains)" `Slow
          test_fcfs_experiment_domains;
        q qcheck_homogeneous_fleet_legacy;
      ] );
    ( "sched.legality",
      [
        q qcheck_sched_legal;
        q qcheck_no_starvation;
        Alcotest.test_case "SSTF/SCAN serve the outlier" `Quick
          test_sstf_serves_outlier;
      ] );
    ( "sched.surface",
      [
        Alcotest.test_case "fastpath fallback matrix" `Quick
          test_fastpath_fallback;
        Alcotest.test_case "run_many rejects non-FCFS" `Quick
          test_run_many_rejects_non_fcfs;
        Alcotest.test_case "registry round-trip" `Quick test_registry;
        Alcotest.test_case "deferred accounting sane" `Quick
          test_deferred_accounting_sane;
      ] );
  ]
