(* Tests for Dpm_sim.Fault (spec parsing, plan purity, degraded-mode
   replay semantics) and the Dpm_core.Run facade's error handling.

   The load-bearing properties: an all-zero spec replays byte-identically
   to no fault injection at all; a fixed non-zero spec + seed is
   deterministic at any domain count; and every fault class both shows up
   in the counters and costs energy/time through the power model. *)

module Fault = Dpm_sim.Fault
module Engine = Dpm_sim.Engine
module Policy = Dpm_sim.Policy
module Result = Dpm_sim.Result
module Striping = Dpm_layout.Striping
module Request = Dpm_trace.Request
module Trace = Dpm_trace.Trace
module Run = Dpm_core.Run
module Scheme = Dpm_core.Scheme
module Pool = Dpm_util.Pool

let kib = Dpm_util.Units.kib
let io = Gen.io
let busy_trace = Gen.busy_trace

(* --- spec: round-trip, validation, zero detection --- *)

let full_spec =
  Fault.make ~seed:42 ~read_error_rate:0.125 ~bad_unit_rate:0.03125
    ~bad_region_len:5 ~spin_up_failure_rate:0.75 ~max_retries:4 ~backoff:0.1
    ~remap_penalty:0.01
    ~disk_failures:[ (0, 30.0); (2, 45.5) ]
    ()

let test_spec_round_trip () =
  Alcotest.(check bool)
    "full spec round-trips" true
    (Fault.of_string (Fault.to_string full_spec) = Ok full_spec);
  Alcotest.(check bool)
    "none round-trips" true
    (Fault.of_string (Fault.to_string Fault.none) = Ok Fault.none);
  match Fault.of_string "seed=7,read=0.01,fail=0@30;2@45" with
  | Error m -> Alcotest.fail m
  | Ok s ->
      Alcotest.(check int) "seed parsed" 7 s.Fault.seed;
      Alcotest.(check (float 0.0)) "rate parsed" 0.01 s.Fault.read_error_rate;
      Alcotest.(check bool)
        "failures parsed" true
        (s.Fault.disk_failures = [ (0, 30.0); (2, 45.0) ])

let test_spec_validate () =
  let bad s = Alcotest.(check bool) "rejected" true (Stdlib.Result.is_error s) in
  bad (Fault.validate (Fault.make ~read_error_rate:1.5 ()));
  bad (Fault.validate (Fault.make ~spin_up_failure_rate:(-0.1) ()));
  bad (Fault.validate (Fault.make ~bad_region_len:0 ()));
  bad (Fault.validate (Fault.make ~backoff:(-1.0) ()));
  bad (Fault.validate (Fault.make ~disk_failures:[ (-1, 5.0) ] ()));
  bad (Fault.of_string "read=nope");
  bad (Fault.of_string "frobnicate=1");
  bad (Fault.of_string "fail=0");
  Alcotest.(check bool)
    "valid spec accepted" true
    (Fault.validate full_spec = Ok full_spec)

let test_is_zero () =
  Alcotest.(check bool) "none is zero" true (Fault.is_zero Fault.none);
  Alcotest.(check bool)
    "seed alone is still zero" true
    (Fault.is_zero (Fault.make ~seed:99 ()));
  Alcotest.(check bool)
    "read rate breaks zero" false
    (Fault.is_zero (Fault.make ~read_error_rate:0.1 ()));
  Alcotest.(check bool)
    "disk failure breaks zero" false
    (Fault.is_zero (Fault.make ~disk_failures:[ (0, 1.0) ] ()))

let test_backoff () =
  let s = Fault.make ~backoff:0.05 () in
  Alcotest.(check (float 1e-12))
    "attempt 0" 0.05
    (Fault.backoff_delay s ~attempt:0);
  Alcotest.(check (float 1e-12))
    "attempt 2 doubles twice" 0.2
    (Fault.backoff_delay s ~attempt:2)

(* qcheck: the printed form is a faithful canonical encoding for any
   in-range spec. *)
let qcheck_round_trip =
  QCheck2.Test.make ~count:200 ~name:"fault: to_string/of_string round-trip"
    QCheck2.Gen.(
      let rate = float_range 0.0 1.0 in
      let* seed = int_range 0 10_000 in
      let* read = rate in
      let* badr = float_range 0.0 0.5 in
      let* len = int_range 1 32 in
      let* spin = rate in
      let* retries = int_range 0 6 in
      let* backoff = float_range 0.0 1.0 in
      let* fails = list_size (int_range 0 3) (pair (int_range 0 7) rate) in
      return
        (Fault.make ~seed ~read_error_rate:read ~bad_unit_rate:badr
           ~bad_region_len:len ~spin_up_failure_rate:spin ~max_retries:retries
           ~backoff ~disk_failures:fails ()))
    (fun s -> Fault.of_string (Fault.to_string s) = Ok s)

(* --- plan: purity and geometry --- *)

let test_plan_purity () =
  let spec = Fault.make ~seed:9 ~bad_unit_rate:0.01 ~bad_region_len:4 () in
  let mk () = Fault.plan spec ~ndisks:8 ~nblocks:10_000 in
  let p1 = mk () and p2 = mk () in
  Alcotest.(check bool)
    "same regions" true
    (Fault.bad_regions p1 = Fault.bad_regions p2);
  Alcotest.(check bool)
    "same failure times" true
    (List.init 8 (fun d -> Fault.fail_time p1 ~disk:d)
    = List.init 8 (fun d -> Fault.fail_time p2 ~disk:d));
  Alcotest.(check bool)
    "coverage near target" true
    (Fault.bad_unit_count p1 > 0 && Fault.bad_unit_count p1 < 400);
  (* Membership agrees with the interval list. *)
  let regions = Fault.bad_regions p1 in
  List.iter
    (fun (lo, hi) ->
      Alcotest.(check bool) "lo in" true (Fault.bad_block p1 ~block:lo);
      Alcotest.(check bool) "hi in" true (Fault.bad_block p1 ~block:hi))
    regions;
  Alcotest.(check bool)
    "outside all regions" false
    (Fault.bad_block p1
       ~block:(1 + List.fold_left (fun m (_, hi) -> max m hi) 0 regions));
  (* Expansion is a pure function: identical whichever domain computes
     it. *)
  let spread_on domains =
    Pool.map ~domains
      (fun () -> Fault.bad_regions (mk ()))
      [ (); (); (); () ]
  in
  Alcotest.(check bool)
    "pure across domains" true
    (spread_on 1 = spread_on 4)

let test_bad_disk_spread () =
  let spec = Fault.make ~seed:9 ~bad_unit_rate:0.02 ~bad_region_len:6 () in
  let plan = Fault.plan spec ~ndisks:8 ~nblocks:5_000 in
  let spread = Fault.bad_disk_spread plan ~striping:Striping.default in
  Alcotest.(check int)
    "spread accounts for every bad unit"
    (Fault.bad_unit_count plan)
    (Array.fold_left ( + ) 0 spread)

(* --- engine: zero spec is byte-identical to no spec --- *)

let test_zero_spec_identical () =
  let trace = busy_trace ~n:200 ~ndisks:2 () in
  let plain = Engine.run Policy.base trace in
  let with_none = Engine.run ~faults:Fault.none Policy.base trace in
  let with_seeded_zero =
    Engine.run ~faults:(Fault.make ~seed:123 ()) Policy.base trace
  in
  Alcotest.(check bool) "none: identical result" true (plain = with_none);
  Alcotest.(check bool)
    "seeded zero: identical result" true
    (plain = with_seeded_zero);
  Alcotest.(check bool)
    "no fault events" true
    (Result.fault_events plain.Result.faults = 0)

(* --- engine: each fault class costs and counts --- *)

let test_read_retries () =
  let trace = busy_trace ~n:300 ~ndisks:2 () in
  let spec = Fault.make ~seed:3 ~read_error_rate:0.3 () in
  let clean = Engine.run Policy.base trace in
  let r = Engine.run ~faults:spec Policy.base trace in
  let f = r.Result.faults in
  Alcotest.(check bool) "retries happened" true (f.Result.read_retries > 0);
  Alcotest.(check bool) "retries delayed" true (f.Result.retry_delay > 0.0);
  Alcotest.(check bool)
    "retries cost energy" true
    (r.Result.energy > clean.Result.energy);
  Alcotest.(check bool)
    "no other fault class fired" true
    (f.Result.remaps = 0 && f.Result.redirects = 0
    && f.Result.failed_disks = 0);
  let r' = Engine.run ~faults:spec Policy.base trace in
  Alcotest.(check bool) "deterministic" true (r = r')

let test_bad_sector_remaps () =
  let trace = busy_trace ~n:300 ~ndisks:2 () in
  let spec = Fault.make ~seed:11 ~bad_unit_rate:0.2 ~bad_region_len:4 () in
  let clean = Engine.run Policy.base trace in
  let r = Engine.run ~faults:spec Policy.base trace in
  Alcotest.(check bool)
    "remaps happened" true
    (r.Result.faults.Result.remaps > 0);
  Alcotest.(check bool)
    "remaps cost energy" true
    (r.Result.energy > clean.Result.energy);
  Alcotest.(check bool)
    "remaps cost time" true
    (r.Result.exec_time >= clean.Result.exec_time)

let test_spin_up_recovery () =
  (* Spin disk 0 down, let the transition finish during a long think,
     then hit it: with a certain spin-up failure and 2 retries the disk
     recovers after exactly two aborted attempts. *)
  let events =
    [
      io ~think:0.0 ~disk:0 ();
      Request.Pm { think = 0.0; directive = Request.Spin_down 0 };
      io ~think:30.0 ~disk:0 ~block:1 ();
    ]
  in
  let trace = Trace.make ~program:"fault-t" ~ndisks:1 events in
  let spec =
    Fault.make ~seed:1 ~spin_up_failure_rate:1.0 ~max_retries:2 ()
  in
  let clean = Engine.run Policy.cm_tpm trace in
  let r = Engine.run ~faults:spec Policy.cm_tpm trace in
  Alcotest.(check int)
    "both bounded attempts aborted" 2
    r.Result.faults.Result.spin_up_recoveries;
  Alcotest.(check bool)
    "recovery costs time" true
    (r.Result.exec_time > clean.Result.exec_time);
  Alcotest.(check bool)
    "recovery costs energy" true
    (r.Result.energy > clean.Result.energy)

let test_disk_failure_redirect () =
  let trace = busy_trace ~think:0.5 ~n:100 ~ndisks:2 () in
  let spec = Fault.make ~disk_failures:[ (0, 10.0) ] () in
  let clean = Engine.run Policy.base trace in
  let r = Engine.run ~faults:spec Policy.base trace in
  let f = r.Result.faults in
  Alcotest.(check int) "one disk lost" 1 f.Result.failed_disks;
  Alcotest.(check bool) "load redirected" true (f.Result.redirects > 0);
  Alcotest.(check bool)
    "dead disk stops drawing power" true
    (r.Result.disks.(0).Result.energy < clean.Result.disks.(0).Result.energy);
  Alcotest.(check bool)
    "survivor picks up the load" true
    (r.Result.disks.(1).Result.requests
    > clean.Result.disks.(1).Result.requests);
  let r' = Engine.run ~faults:spec Policy.base trace in
  Alcotest.(check bool) "deterministic" true (r = r')

let test_run_many_degraded () =
  let t1 = busy_trace ~think:0.2 ~n:60 ~ndisks:2 () in
  let t2 = busy_trace ~think:0.3 ~n:40 ~ndisks:2 () in
  let spec =
    Fault.make ~seed:5 ~read_error_rate:0.05 ~disk_failures:[ (0, 3.0) ] ()
  in
  let r = Engine.run_many ~faults:spec Policy.base [ t1; t2 ] in
  Alcotest.(check bool)
    "shared degraded disk redirects" true
    (r.Result.faults.Result.redirects > 0);
  let r' = Engine.run_many ~faults:spec Policy.base [ t1; t2 ] in
  Alcotest.(check bool) "deterministic" true (r = r')

(* Fixed non-zero spec + seed: bit-identical whichever domain replays
   it (share-nothing state). *)
let test_domain_determinism () =
  let trace = busy_trace ~n:200 ~ndisks:4 () in
  let spec =
    Fault.make ~seed:7 ~read_error_rate:0.1 ~bad_unit_rate:0.05
      ~spin_up_failure_rate:0.5
      ~disk_failures:[ (2, 5.0) ]
      ()
  in
  let replay_on domains =
    Pool.map ~domains
      (fun () -> Engine.run ~faults:spec Policy.base trace)
      [ (); (); (); () ]
  in
  let one = replay_on 1 and four = replay_on 4 in
  Alcotest.(check bool) "1 vs 4 domains identical" true (one = four);
  match one with
  | r :: rest ->
      Alcotest.(check bool)
        "all replays identical" true
        (List.for_all (fun r' -> r' = r) rest);
      Alcotest.(check bool)
        "faults actually fired" true
        (Result.fault_events r.Result.faults > 0)
  | [] -> Alcotest.fail "Pool.map dropped results"

(* Degraded-mode replay stays deterministic — and its event log legal —
   whatever fleet, scheduling discipline and queue depth serve it. *)
let qcheck_degraded_any_config =
  QCheck2.Test.make ~count:15
    ~name:"fault: deterministic + legal log (fleets × disciplines × depths)"
    Gen.gen_config ~print:Gen.config_print
    (fun config ->
      let trace = busy_trace ~n:150 ~ndisks:4 () in
      let run () =
        let sink = Dpm_sim.Timeline.sink () in
        let r =
          Engine.run ~config ~faults:Gen.fault_spec ~timeline:sink Policy.base
            trace
        in
        (r, Dpm_sim.Timeline.contents sink)
      in
      let r1, tl = run () in
      let r2, _ = run () in
      if r1 <> r2 then QCheck2.Test.fail_report "replay not deterministic"
      else if Result.fault_events r1.Result.faults = 0 then
        QCheck2.Test.fail_report "faults never fired"
      else
        match Dpm_sim.Timeline.check tl with
        | Ok () -> true
        | Error msgs ->
            QCheck2.Test.fail_reportf "illegal log: %s"
              (String.concat "; " msgs))

(* --- timeline signatures: each fault class leaves its events --- *)

module Timeline = Dpm_sim.Timeline

let run_logged ?faults policy trace =
  let sink = Timeline.sink () in
  let r = Engine.run ?faults ~timeline:sink policy trace in
  (r, Timeline.contents sink)

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* A faulted log must still be a legal, energy-exact execution. *)
let assert_faulted_log_sound label (r : Result.t) tl =
  let e = Timeline.reintegrate tl in
  Alcotest.(check bool)
    (label ^ ": faulted log reintegrates")
    true
    (close e.Timeline.total r.Result.energy);
  match Timeline.check tl with
  | Ok () -> ()
  | Error es -> Alcotest.fail (label ^ ": " ^ String.concat "; " es)

let count_events tl pred =
  List.length (List.filter pred (Timeline.events tl))

let test_timeline_retry_signature () =
  let trace = busy_trace ~n:300 ~ndisks:2 () in
  let spec = Fault.make ~seed:3 ~read_error_rate:0.3 () in
  let r, tl = run_logged ~faults:spec Policy.base trace in
  assert_faulted_log_sound "retries" r tl;
  Alcotest.(check int) "one Retry mark per counted retry"
    r.Result.faults.Result.read_retries
    (count_events tl (function
      | Timeline.Mark { mark = Timeline.Retry _; _ } -> true
      | _ -> false));
  let sums = Timeline.disk_summaries tl in
  Alcotest.(check int) "summaries agree" r.Result.faults.Result.read_retries
    (Array.fold_left (fun acc s -> acc + s.Timeline.retries) 0 sums)

let test_timeline_remap_signature () =
  let trace = busy_trace ~n:300 ~ndisks:2 () in
  let spec = Fault.make ~seed:11 ~bad_unit_rate:0.2 ~bad_region_len:4 () in
  let r, tl = run_logged ~faults:spec Policy.base trace in
  assert_faulted_log_sound "remaps" r tl;
  let remaps = r.Result.faults.Result.remaps in
  Alcotest.(check bool) "remaps fired" true (remaps > 0);
  Alcotest.(check int) "one Remap mark per remap" remaps
    (count_events tl (function
      | Timeline.Mark { mark = Timeline.Remap _; _ } -> true
      | _ -> false));
  Alcotest.(check int) "one occupancy interval per remap" remaps
    (count_events tl (function Timeline.Occupy _ -> true | _ -> false))

let test_timeline_stuck_spin_up_signature () =
  (* The certain-failure recovery scenario from test_spin_up_recovery:
     exactly two aborted attempts before the bounded retry succeeds. *)
  let events =
    [
      io ~think:0.0 ~disk:0 ();
      Request.Pm { think = 0.0; directive = Request.Spin_down 0 };
      io ~think:30.0 ~disk:0 ~block:1 ();
    ]
  in
  let trace = Trace.make ~program:"fault-t" ~ndisks:1 events in
  let spec =
    Fault.make ~seed:1 ~spin_up_failure_rate:1.0 ~max_retries:2 ()
  in
  let r, tl = run_logged ~faults:spec Policy.cm_tpm trace in
  assert_faulted_log_sound "stuck spin-up" r tl;
  let aborts =
    List.filter_map
      (function
        | Timeline.Aborted { fraction; t0; t1; _ } -> Some (fraction, t1 -. t0)
        | _ -> None)
      (Timeline.events tl)
  in
  Alcotest.(check int) "one Aborted event per recovery"
    r.Result.faults.Result.spin_up_recoveries (List.length aborts);
  List.iter
    (fun (fraction, dt) ->
      Alcotest.(check bool) "fraction in (0, 1]" true
        (fraction > 0.0 && fraction <= 1.0);
      Alcotest.(check bool) "burns wall time" true (dt > 0.0))
    aborts;
  let sums = Timeline.disk_summaries tl in
  Alcotest.(check int) "summaries count the aborts" (List.length aborts)
    sums.(0).Timeline.aborted

let test_timeline_disk_failure_signature () =
  let trace = busy_trace ~think:0.5 ~n:100 ~ndisks:2 () in
  let spec = Fault.make ~disk_failures:[ (0, 10.0) ] () in
  let r, tl = run_logged ~faults:spec Policy.base trace in
  assert_faulted_log_sound "disk failure" r tl;
  let sums = Timeline.disk_summaries tl in
  (match sums.(0).Timeline.killed_at with
  | None -> Alcotest.fail "disk 0 has no Killed mark"
  | Some k ->
      Alcotest.(check bool) "killed at/after the scheduled time" true
        (k >= 10.0));
  Alcotest.(check bool) "survivor has no Killed mark" true
    (sums.(1).Timeline.killed_at = None);
  Alcotest.(check int) "one Redirect mark per redirect"
    r.Result.faults.Result.redirects
    (count_events tl (function
      | Timeline.Mark { mark = Timeline.Redirect _; _ } -> true
      | _ -> false));
  (* Redirect marks land on the surviving disk and name the dead one. *)
  List.iter
    (fun ev ->
      match ev with
      | Timeline.Mark { disk; mark = Timeline.Redirect orig; _ } ->
          Alcotest.(check int) "recorded on the survivor" 1 disk;
          Alcotest.(check int) "names the dead disk" 0 orig
      | _ -> ())
    (Timeline.events tl)

(* --- the Run facade --- *)

let test_run_errors () =
  let check_err label expected spec =
    match Run.exec_all spec with
    | Ok _ -> Alcotest.fail (label ^ ": expected an error")
    | Error e ->
        Alcotest.(check bool) label true (expected e);
        Alcotest.(check bool)
          (label ^ " has message") true
          (String.length (Run.error_message e) > 0)
  in
  check_err "unknown benchmark"
    (function Run.Unknown_benchmark "nosuch" -> true | _ -> false)
    (Run.spec (Run.Benchmark "nosuch"));
  check_err "unknown scheme"
    (function Run.Unknown_scheme "NOSUCH" -> true | _ -> false)
    (Run.spec ~scheme_names:[ "Base"; "NOSUCH" ] (Run.Benchmark "galgel"));
  let invalid_faults = function Run.Invalid_faults _ -> true | _ -> false in
  let bad = Fault.make ~read_error_rate:2.0 () in
  check_err "invalid faults" invalid_faults
    (Run.spec ~faults:bad (Run.Benchmark "galgel"));
  check_err "invalid faults inside a setup" invalid_faults
    (Run.spec
       ~setup:(Dpm_core.Experiment.make_setup ~faults:bad ())
       (Run.Benchmark "galgel"));
  (* A document gives the same error wherever the faults sit. *)
  let module Json = Dpm_util.Json in
  List.iter
    (fun (label, fields) ->
      match
        Run.of_json
          (Json.Obj
             ([
                ("schema", Json.Str Run.spec_schema_version);
                ( "workload",
                  Json.Obj
                    [
                      ("kind", Json.Str "benchmark"); ("name", Json.Str "galgel");
                    ] );
                ("schemes", Json.Arr [ Json.Str "Base" ]);
              ]
             @ fields))
      with
      | Ok _ -> Alcotest.fail (label ^ ": expected an error")
      | Error e -> Alcotest.(check bool) label true (invalid_faults e))
    [
      ( "document setup faults",
        [ ("setup", Json.Obj [ ("faults", Json.Str "read=2") ]) ] );
      ("document top-level faults", [ ("faults", Json.Str "read=2") ]);
    ]

let test_run_exec () =
  let exec faults =
    match
      Run.exec (Run.spec ~scheme_names:[ "base" ] ?faults (Run.Benchmark "galgel"))
    with
    | Ok r -> r
    | Error e -> Alcotest.fail (Run.error_message e)
  in
  let plain = exec None in
  Alcotest.(check bool) "ran Base" true (String.length plain.Result.scheme > 0);
  Alcotest.(check bool) "positive energy" true (plain.Result.energy > 0.0);
  (* An explicit all-zero fault spec changes nothing end-to-end. *)
  let zero = exec (Some (Fault.make ~seed:99 ())) in
  Alcotest.(check bool) "zero spec identical end-to-end" true (plain = zero)

let suite =
  [
    ( "fault",
      [
        Alcotest.test_case "spec round-trip" `Quick test_spec_round_trip;
        Alcotest.test_case "spec validation" `Quick test_spec_validate;
        Alcotest.test_case "is_zero" `Quick test_is_zero;
        Alcotest.test_case "backoff" `Quick test_backoff;
        QCheck_alcotest.to_alcotest qcheck_round_trip;
        Alcotest.test_case "plan purity" `Quick test_plan_purity;
        Alcotest.test_case "bad-disk spread" `Quick test_bad_disk_spread;
        Alcotest.test_case "zero spec identical" `Quick
          test_zero_spec_identical;
        Alcotest.test_case "read retries" `Quick test_read_retries;
        Alcotest.test_case "bad-sector remaps" `Quick test_bad_sector_remaps;
        Alcotest.test_case "spin-up recovery" `Quick test_spin_up_recovery;
        Alcotest.test_case "disk failure redirect" `Quick
          test_disk_failure_redirect;
        Alcotest.test_case "run_many degraded" `Quick test_run_many_degraded;
        Alcotest.test_case "domain determinism" `Quick test_domain_determinism;
        QCheck_alcotest.to_alcotest qcheck_degraded_any_config;
      ] );
    ( "fault.timeline",
      [
        Alcotest.test_case "retry signature" `Quick
          test_timeline_retry_signature;
        Alcotest.test_case "remap signature" `Quick
          test_timeline_remap_signature;
        Alcotest.test_case "stuck spin-up signature" `Quick
          test_timeline_stuck_spin_up_signature;
        Alcotest.test_case "disk failure signature" `Quick
          test_timeline_disk_failure_signature;
      ] );
    ( "run-facade",
      [
        Alcotest.test_case "typed errors" `Quick test_run_errors;
        Alcotest.test_case "exec + zero faults end-to-end" `Slow test_run_exec;
      ] );
  ]
