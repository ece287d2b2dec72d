(* Tests for Dpm_sim: the per-disk power state machine, the replay
   engine's energy accounting, the reactive policies, and the oracle
   schemes. *)

module Config = Dpm_sim.Config
module Disk_state = Dpm_sim.Disk_state
module Engine = Dpm_sim.Engine
module Policy = Dpm_sim.Policy
module Result = Dpm_sim.Result
module Oracle = Dpm_sim.Oracle
module Specs = Dpm_disk.Specs
module Rpm = Dpm_disk.Rpm
module Power = Dpm_disk.Power
module Service = Dpm_disk.Service
module Request = Dpm_trace.Request
module Trace = Dpm_trace.Trace

let specs = Specs.ultrastar_36z15
let top = Rpm.max_level specs
let kib = Dpm_util.Units.kib
let check_float tol = Alcotest.(check (float tol))

(* --- Disk_state --- *)

let test_disk_idle_energy () =
  let st = Disk_state.create specs ~id:0 in
  Disk_state.finalize st ~at:10.0;
  check_float 1e-6 "idle at full speed" (10.0 *. specs.Specs.p_idle)
    (Disk_state.energy st)

let test_disk_serve_energy () =
  let st = Disk_state.create specs ~id:0 in
  let completion = Disk_state.serve st ~now:2.0 ~bytes:(kib 64) in
  let service = Service.request_time specs ~level:top ~bytes:(kib 64) in
  check_float 1e-9 "completion" (2.0 +. service) completion;
  Disk_state.finalize st ~at:10.0;
  let expected =
    ((10.0 -. service) *. specs.Specs.p_idle)
    +. (service *. specs.Specs.p_active)
  in
  check_float 1e-6 "idle+active split" expected (Disk_state.energy st);
  Alcotest.(check int) "served" 1 (Disk_state.requests_served st)

let test_disk_set_level_residency () =
  let st = Disk_state.create specs ~id:0 in
  Disk_state.set_level st ~now:1.0 0;
  Disk_state.finalize st ~at:11.0;
  let trans = Rpm.transition_time specs ~from_level:top ~to_level:0 in
  let residency = Disk_state.level_residency st in
  check_float 1e-6 "time at bottom" (10.0 -. trans) residency.(0);
  check_float 1e-6 "time at top" 1.0 residency.(top);
  let expected =
    (1.0 *. specs.Specs.p_idle)
    +. Rpm.transition_energy specs ~from_level:top ~to_level:0
    +. ((10.0 -. trans) *. Power.idle specs ~level:0)
  in
  check_float 1e-6 "energy" expected (Disk_state.energy st)

let test_disk_serve_waits_for_modulation () =
  let st = Disk_state.create specs ~id:0 in
  Disk_state.set_level st ~now:0.0 0;
  (* A request arriving mid-modulation waits for it, then serves at the
     reached level. *)
  let trans = Rpm.transition_time specs ~from_level:top ~to_level:0 in
  let completion = Disk_state.serve st ~now:(trans /. 2.0) ~bytes:(kib 64) in
  let service = Service.request_time specs ~level:0 ~bytes:(kib 64) in
  check_float 1e-9 "waits then serves slow" (trans +. service) completion

let test_disk_standby_auto_spin_up () =
  let st = Disk_state.create specs ~id:0 in
  Disk_state.spin_down st ~now:0.0;
  Disk_state.finalize st ~at:specs.Specs.t_spin_down;
  (match Disk_state.phase st with
  | Disk_state.Standby -> ()
  | _ -> Alcotest.fail "should be in standby");
  let completion = Disk_state.serve st ~now:20.0 ~bytes:(kib 64) in
  let service = Service.request_time specs ~level:top ~bytes:(kib 64) in
  check_float 1e-9 "pays the spin-up"
    (20.0 +. specs.Specs.t_spin_up +. service)
    completion;
  Alcotest.(check int) "one spin-down" 1 (Disk_state.spin_down_count st)

let test_disk_past_operations_clamp () =
  let st = Disk_state.create specs ~id:0 in
  let c1 = Disk_state.serve st ~now:5.0 ~bytes:(kib 64) in
  (* An operation stamped before the disk's own clock must not loop or
     rewind: it takes effect at the clock. *)
  Disk_state.set_level st ~now:1.0 0;
  Disk_state.set_level st ~now:1.0 top;
  let c2 = Disk_state.serve st ~now:1.0 ~bytes:(kib 64) in
  Alcotest.(check bool) "monotone" true (c2 > c1)

let test_disk_spin_chains () =
  let st = Disk_state.create specs ~id:0 in
  Disk_state.spin_down st ~now:0.0;
  (* Spin-up requested mid-spin-down chains after it. *)
  Disk_state.spin_up st ~now:0.1;
  Disk_state.finalize st ~at:30.0;
  match Disk_state.phase st with
  | Disk_state.Ready l -> Alcotest.(check int) "back at top" top l
  | _ -> Alcotest.fail "should have spun back up"

(* --- Engine --- *)

let io ?(think = 0.0) ?(disk = 0) ?(bytes = kib 64) () =
  Request.Io
    { think; disk; block = 0; bytes; kind = Request.Read; nest = 0; iter = 0 }

let test_engine_base_energy_formula () =
  (* n requests with fixed think: E = ndisks*P_idle*T + (P_active - P_idle)*busy. *)
  let events = List.init 10 (fun _ -> io ~think:0.01 ()) in
  let trace = Trace.make ~tail_think:0.5 ~program:"t" ~ndisks:4 events in
  let r = Engine.run Policy.base trace in
  let service = Service.request_time specs ~level:top ~bytes:(kib 64) in
  let t = (10.0 *. (0.01 +. service)) +. 0.5 in
  check_float 1e-6 "exec time" t r.Result.exec_time;
  let expected =
    (4.0 *. specs.Specs.p_idle *. t)
    +. ((specs.Specs.p_active -. specs.Specs.p_idle) *. 10.0 *. service)
  in
  check_float 1e-3 "energy formula" expected r.Result.energy

let test_engine_open_vs_closed () =
  (* A directive that spins a disk down right before its request: closed
     mode pays the full spin-up in execution time; open mode hides it
     behind the traced timeline until the queue bound binds. *)
  let events =
    [
      Request.Pm { think = 0.0; directive = Request.Spin_down 0 };
      io ~think:20.0 ();
      io ~think:1.0 ();
    ]
  in
  let trace = Trace.make ~program:"t" ~ndisks:2 events in
  let closed = Engine.run ~mode:`Closed Policy.cm_tpm trace in
  let open_ = Engine.run ~mode:`Open Policy.cm_tpm trace in
  Alcotest.(check bool) "closed pays spin-up" true
    (closed.Result.exec_time > open_.Result.exec_time);
  Alcotest.(check bool) "open still pays some lateness" true
    (open_.Result.exec_time > 21.0)

let test_engine_ignores_directives_without_policy () =
  let events =
    [ Request.Pm { think = 1.0; directive = Request.Spin_down 0 }; io () ]
  in
  let trace = Trace.make ~program:"t" ~ndisks:1 events in
  let r = Engine.run Policy.base trace in
  Alcotest.(check int) "no spin-down happened" 0 r.Result.disks.(0).Result.spin_downs;
  (* The directive's think time still elapses. *)
  Alcotest.(check bool) "think preserved" true (r.Result.exec_time >= 1.0)

let test_engine_gap_choices_recorded () =
  let events =
    [
      Request.Pm { think = 0.0; directive = Request.Set_rpm { level = 2; disk = 0 } };
      io ~think:5.0 ();
    ]
  in
  let trace = Trace.make ~program:"t" ~ndisks:1 events in
  let r = Engine.run Policy.cm_drpm trace in
  match r.Result.gap_choices with
  | [ (0, _, 2) ] -> ()
  | _ -> Alcotest.fail "down-choice should be recorded"

let test_engine_queue_bound () =
  (* 64 zero-think requests to one disk: the app stalls at the queue
     bound, so exec time is about n * service, not 0. *)
  let events = List.init 64 (fun _ -> io ()) in
  let trace = Trace.make ~program:"t" ~ndisks:1 events in
  let r = Engine.run ~mode:`Open Policy.base trace in
  let service = Service.request_time specs ~level:top ~bytes:(kib 64) in
  Alcotest.(check bool) "makespan at least the service demand" true
    (r.Result.exec_time >= 63.0 *. service)

let test_engine_pm_overhead_advances_clock () =
  let events =
    [
      Request.Pm { think = 0.0; directive = Request.Set_rpm { level = 10; disk = 0 } };
      io ();
    ]
  in
  let trace = Trace.make ~program:"t" ~ndisks:1 events in
  let with_cm = Engine.run Policy.cm_drpm trace in
  let without = Engine.run Policy.base trace in
  (* The accepted directive costs the Tm call overhead on the compute
     timeline; a top-level set to the current level is otherwise a
     no-op. *)
  Alcotest.(check bool) "overhead charged" true
    (with_cm.Result.exec_time
    >= without.Result.exec_time +. Config.default.Config.pm_call_overhead -. 1e-12)

let test_engine_top_level_set_rpm_not_a_choice () =
  let events =
    [
      Request.Pm { think = 0.0; directive = Request.Set_rpm { level = 10; disk = 0 } };
      io ~think:1.0 ();
    ]
  in
  let trace = Trace.make ~program:"t" ~ndisks:1 events in
  let r = Engine.run Policy.cm_drpm trace in
  Alcotest.(check int) "full-speed set not recorded as a down-choice" 0
    (List.length r.Result.gap_choices)

(* --- Result --- *)

let test_result_idle_gaps () =
  let events = [ io ~think:1.0 (); io ~think:2.0 () ] in
  let trace = Trace.make ~tail_think:1.0 ~program:"t" ~ndisks:1 events in
  let r = Engine.run Policy.base trace in
  let gaps = Result.idle_gaps r ~disk:0 in
  Alcotest.(check int) "three gaps" 3 (List.length gaps);
  let total = List.fold_left (fun a (lo, hi) -> a +. (hi -. lo)) 0.0 gaps in
  let service = Service.request_time specs ~level:top ~bytes:(kib 64) in
  check_float 1e-6 "gap total = exec - busy"
    (r.Result.exec_time -. (2.0 *. service))
    total

(* [Result.idle_gaps] is one indexed merge-and-complement pass over the
   busy column; it must return exactly the gaps of the list algebra
   (test/interval_ref.ml) it replaced. *)
let reference_gaps (r : Result.t) ~disk =
  let busy = r.Result.disks.(disk).Result.busy in
  let pairs =
    List.init (Float.Array.length busy / 2) (fun k ->
        (Float.Array.get busy (2 * k), Float.Array.get busy ((2 * k) + 1)))
  in
  Interval_ref.complement ~lo:0.0 ~hi:(Result.horizon r ~disk)
    (Interval_ref.normalize pairs)

let result_of_busy ~exec_time busy =
  {
    Result.scheme = "Base";
    program = "gaps";
    exec_time;
    energy = 0.0;
    disks =
      [|
        {
          Result.energy = 0.0;
          busy;
          requests = Float.Array.length busy / 2;
          transitions = 0;
          spin_downs = 0;
          level_residency = [||];
          standby_time = 0.0;
          transition_time = 0.0;
          killed_at = None;
        };
      |];
    gap_choices = [];
    faults = Result.no_faults;
  }

(* Sorted busy columns: each pair starts where its predecessor ends
   (touching), inside it (overlapping), or after an idle gap, and is
   zero-width one time in three.  The run ends at the last end or
   after it. *)
let busy_column_gen =
  QCheck2.Gen.(
    let step =
      triple (int_range 0 2) (float_bound_exclusive 3.0) (int_range 0 2)
    in
    map2
      (fun steps tail ->
        let s = ref 0.0 and e = ref 0.0 and pairs = ref [] in
        List.iter
          (fun (kind, x, w) ->
            let start =
              match kind with
              | 0 -> !e
              | 1 -> !s +. ((!e -. !s) *. x /. 3.0)
              | _ -> !e +. x
            in
            let stop = if w = 0 then start else start +. (x /. 2.0) +. 0.01 in
            s := start;
            e := Float.max !e stop;
            pairs := stop :: start :: !pairs)
          steps;
        let busy = Float.Array.of_list (List.rev !pairs) in
        let exec_time = if tail < 1.0 then !e else !e +. tail in
        (busy, exec_time))
      (list_size (int_bound 12) step)
      (float_bound_exclusive 4.0))

let qcheck_idle_gaps_reference =
  QCheck2.Test.make ~count:300
    ~name:"result: idle_gaps = complement (normalize busy)" busy_column_gen
    (fun (busy, exec_time) ->
      let r = result_of_busy ~exec_time busy in
      Result.idle_gaps r ~disk:0 = reference_gaps r ~disk:0)

let test_idle_gaps_suite_reference () =
  List.iter
    (fun (spec : Dpm_workloads.Suite.spec) ->
      let name = spec.Dpm_workloads.Suite.name in
      match
        Dpm_core.Run.exec
          (Dpm_core.Run.spec ~scheme_names:[ "Base" ]
             (Dpm_core.Run.Benchmark name))
      with
      | Error e -> Alcotest.failf "%s: %s" name (Dpm_core.Run.error_message e)
      | Ok base ->
          Array.iteri
            (fun disk _ ->
              Alcotest.(check bool)
                (Printf.sprintf "%s disk %d" name disk)
                true
                (Result.idle_gaps base ~disk = reference_gaps base ~disk))
            base.Result.disks)
    Dpm_workloads.Suite.all

(* --- Multiprogrammed replay --- *)

let total_requests (r : Result.t) =
  Array.fold_left (fun n (d : Result.disk_stats) -> n + d.requests) 0 r.disks

let test_run_many_single_equals_run () =
  let events = List.init 8 (fun _ -> io ~think:0.5 ()) in
  let trace = Trace.make ~tail_think:0.2 ~program:"t" ~ndisks:2 events in
  let a = Engine.run Policy.base trace in
  let b = Engine.run_many Policy.base [ trace ] in
  check_float 1e-9 "same energy" a.Result.energy b.Result.energy;
  check_float 1e-9 "same time" a.Result.exec_time b.Result.exec_time

let test_run_many_rejects_mismatch () =
  let t1 = Trace.make ~program:"a" ~ndisks:2 [ io () ] in
  let t2 = Trace.make ~program:"b" ~ndisks:4 [ io () ] in
  Alcotest.check_raises "ndisks differ"
    (Invalid_argument "Engine.run_many: disk counts differ") (fun () ->
      ignore (Engine.run_many Policy.base [ t1; t2 ]))

let test_run_many_shares_subsystem () =
  (* Two identical apps on one disk: the subsystem serves both request
     streams, so it sees twice the requests of one app. *)
  let mk name = Trace.make ~program:name ~ndisks:1 (List.init 6 (fun _ -> io ~think:0.5 ())) in
  let r = Engine.run_many Policy.base [ mk "a"; mk "b" ] in
  Alcotest.(check int) "both streams served" 12 (total_requests r);
  Alcotest.(check string) "combined name" "a+b" r.Result.program;
  (* Runtime is bounded by one app's span (they interleave), not the sum. *)
  let single = Engine.run Policy.base (mk "a") in
  Alcotest.(check bool) "concurrent, not serial" true
    (r.Result.exec_time < 1.5 *. single.Result.exec_time)

(* --- Reactive policies --- *)

let test_tpm_spins_down_long_idle () =
  let threshold = Power.tpm_break_even specs in
  let events = [ io (); io ~think:(threshold +. 5.0) () ] in
  let trace = Trace.make ~program:"t" ~ndisks:1 events in
  let r = Engine.run (Policy.tpm Config.default) trace in
  Alcotest.(check int) "one spin-down" 1 r.Result.disks.(0).Result.spin_downs;
  (* The second request pays the on-demand spin-up in open-loop lateness. *)
  Alcotest.(check bool) "standby residency" true
    (r.Result.disks.(0).Result.standby_time > 0.0)

let test_tpm_ignores_short_idle () =
  let events = [ io (); io ~think:2.0 () ] in
  let trace = Trace.make ~program:"t" ~ndisks:1 events in
  let r = Engine.run (Policy.tpm Config.default) trace in
  Alcotest.(check int) "no spin-down" 0 r.Result.disks.(0).Result.spin_downs

let test_atpm_inert_at_break_even () =
  (* Gaps below the initial (break-even) threshold: the adaptive scheme
     is exactly as inert as fixed TPM. *)
  let events = List.init 6 (fun _ -> io ~think:5.0 ()) in
  let trace = Trace.make ~program:"t" ~ndisks:1 events in
  let r = Engine.run (Policy.tpm_adaptive Config.default ~ndisks:1) trace in
  Alcotest.(check int) "no spin-downs" 0 r.Result.disks.(0).Result.spin_downs

let test_atpm_threshold_adapts () =
  (* Repeated 17s gaps: each spin-down is judged good (the idle period
     exceeds break-even), so the threshold decays below break-even and
     the scheme eventually spins down on gaps fixed TPM would skip. *)
  let good = List.init 10 (fun _ -> io ~think:17.0 ()) in
  let probe = [ io ~think:14.5 (); io ~think:1.0 () ] in
  let trace = Trace.make ~program:"t" ~ndisks:1 (good @ probe) in
  let adaptive =
    Engine.run (Policy.tpm_adaptive Config.default ~ndisks:1) trace
  in
  let fixed = Engine.run (Policy.tpm Config.default) trace in
  Alcotest.(check bool) "adaptive spins on the 14.5s probe" true
    (adaptive.Result.disks.(0).Result.spin_downs
    > fixed.Result.disks.(0).Result.spin_downs)

let test_drpm_idle_steps () =
  (* One request, then a long gap: the idle controller steps down. *)
  let events = [ io (); io ~think:30.0 () ] in
  let trace = Trace.make ~program:"t" ~ndisks:1 events in
  let r = Engine.run (Policy.drpm Config.default ~ndisks:1) trace in
  Alcotest.(check bool) "transitions happened" true
    (r.Result.disks.(0).Result.transitions > 0);
  Alcotest.(check bool) "saves vs base" true
    (r.Result.energy < (Engine.run Policy.base trace).Result.energy)

(* --- Oracle --- *)

let base_result_with_gap gap =
  let events = [ io (); io ~think:gap () ] in
  let trace = Trace.make ~program:"t" ~ndisks:1 events in
  Engine.run Policy.base trace

let test_oracle_itpm_matches_plan () =
  let base = base_result_with_gap 40.0 in
  let itpm = Oracle.itpm base in
  Alcotest.(check bool) "saves on a 40s gap" true
    (itpm.Result.energy < base.Result.energy);
  Alcotest.(check (float 1e-9)) "no time penalty" base.Result.exec_time
    itpm.Result.exec_time;
  Alcotest.(check int) "one oracle spin-down" 1
    itpm.Result.disks.(0).Result.spin_downs

let test_oracle_itpm_short_gap_noop () =
  let base = base_result_with_gap 2.0 in
  let itpm = Oracle.itpm base in
  check_float 1e-6 "no saving below break-even" base.Result.energy
    itpm.Result.energy

let test_oracle_idrpm_beats_base () =
  let base = base_result_with_gap 10.0 in
  let idrpm = Oracle.idrpm base in
  Alcotest.(check bool) "saves" true (idrpm.Result.energy < base.Result.energy);
  Alcotest.(check (float 1e-9)) "no time penalty" base.Result.exec_time
    idrpm.Result.exec_time;
  Alcotest.(check bool) "records gap choices" true
    (List.length idrpm.Result.gap_choices > 0)

let test_oracle_phases_partition_time () =
  let base = base_result_with_gap 10.0 in
  let phases = Oracle.phases base ~disk:0 in
  let total =
    List.fold_left
      (fun acc ph ->
        match ph with
        | Oracle.Burst { span = lo, hi; _ } -> acc +. (hi -. lo)
        | Oracle.Gap { span = lo, hi; _ } -> acc +. (hi -. lo))
      0.0 phases
  in
  check_float 1e-6 "phases cover the run" base.Result.exec_time total

let test_oracle_serves_slow_in_sparse_burst () =
  (* Requests spaced 0.2s apart form one burst (below the 0.5s burst
     threshold) with lots of slack: the oracle serves below full speed. *)
  let events = List.init 20 (fun _ -> io ~think:0.2 ()) in
  let trace = Trace.make ~program:"t" ~ndisks:1 events in
  let base = Engine.run Policy.base trace in
  let phases = Oracle.phases base ~disk:0 in
  let burst_levels =
    List.filter_map
      (function Oracle.Burst { level; _ } -> Some level | Oracle.Gap _ -> None)
      phases
  in
  Alcotest.(check bool) "below top speed" true
    (List.exists (fun l -> l < top) burst_levels)

(* --- Property tests: energy bounds and oracle dominance --- *)

(* Random small traces: a few requests with random think times over a
   few disks. *)
let trace_gen =
  QCheck2.Gen.(
    map
      (fun events ->
        let events =
          List.map
            (fun (think, disk, big) ->
              io ~think ~disk ~bytes:(kib (if big then 64 else 16)) ())
            events
        in
        Trace.make ~tail_think:0.1 ~program:"q" ~ndisks:3 events)
      (list_size (int_range 1 25)
         (triple (float_bound_exclusive 3.0) (int_bound 2) bool)))

let qcheck_energy_bounds policy_name make_policy =
  QCheck2.Test.make ~count:100
    ~name:("engine: energy within physical bounds (" ^ policy_name ^ ")")
    trace_gen
    (fun trace ->
      let r = Engine.run (make_policy ()) trace in
      let t = r.Result.exec_time in
      (* finalize may settle transitions slightly past the end. *)
      let upper = 3.0 *. specs.Specs.p_active *. (t +. 16.0) in
      let lower = 3.0 *. specs.Specs.p_standby *. t *. 0.99 in
      r.Result.energy >= lower && r.Result.energy <= upper)

let qcheck_base_bounds = qcheck_energy_bounds "base" (fun () -> Policy.base)

let qcheck_tpm_bounds =
  qcheck_energy_bounds "tpm" (fun () -> Policy.tpm Config.default)

let qcheck_drpm_bounds =
  qcheck_energy_bounds "drpm" (fun () -> Policy.drpm Config.default ~ndisks:3)

let qcheck_oracles_never_lose =
  QCheck2.Test.make ~count:100
    ~name:"oracle: ITPM and IDRPM never exceed Base energy" trace_gen
    (fun trace ->
      let base = Engine.run Policy.base trace in
      (Oracle.itpm base).Result.energy <= base.Result.energy +. 1e-6
      && (Oracle.idrpm base).Result.energy <= base.Result.energy +. 1e-6)

let qcheck_closed_never_faster =
  QCheck2.Test.make ~count:100
    ~name:"engine: closed-loop replay is never faster than open" trace_gen
    (fun trace ->
      let o = Engine.run ~mode:`Open Policy.base trace in
      let c = Engine.run ~mode:`Closed Policy.base trace in
      c.Result.exec_time >= o.Result.exec_time -. 1e-9)

let qcheck_busy_intervals_sorted_disjoint =
  QCheck2.Test.make ~count:100
    ~name:"engine: per-disk busy intervals are sorted and disjoint" trace_gen
    (fun trace ->
      let r = Engine.run Policy.base trace in
      Array.for_all
        (fun (d : Result.disk_stats) ->
          let busy = d.Result.busy in
          let n = Float.Array.length busy in
          (* Each pair is well formed and ends before the next starts. *)
          let rec ok k =
            k >= n
            || Float.Array.get busy k <= Float.Array.get busy (k + 1)
               && (k + 2 >= n
                  || Float.Array.get busy (k + 1)
                     <= Float.Array.get busy (k + 2))
               && ok (k + 2)
          in
          n mod 2 = 0 && ok 0)
        r.Result.disks)

let suite =
  [
    ( "sim.disk_state",
      [
        Alcotest.test_case "idle energy" `Quick test_disk_idle_energy;
        Alcotest.test_case "serve energy" `Quick test_disk_serve_energy;
        Alcotest.test_case "set_level residency" `Quick test_disk_set_level_residency;
        Alcotest.test_case "serve waits modulation" `Quick
          test_disk_serve_waits_for_modulation;
        Alcotest.test_case "standby auto spin-up" `Quick
          test_disk_standby_auto_spin_up;
        Alcotest.test_case "past ops clamp" `Quick test_disk_past_operations_clamp;
        Alcotest.test_case "spin chains" `Quick test_disk_spin_chains;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "base energy formula" `Quick
          test_engine_base_energy_formula;
        Alcotest.test_case "open vs closed" `Quick test_engine_open_vs_closed;
        Alcotest.test_case "directive gating" `Quick
          test_engine_ignores_directives_without_policy;
        Alcotest.test_case "gap choices" `Quick test_engine_gap_choices_recorded;
        Alcotest.test_case "queue bound" `Quick test_engine_queue_bound;
        Alcotest.test_case "pm overhead" `Quick
          test_engine_pm_overhead_advances_clock;
        Alcotest.test_case "top-level set_rpm" `Quick
          test_engine_top_level_set_rpm_not_a_choice;
        Alcotest.test_case "run_many single" `Quick test_run_many_single_equals_run;
        Alcotest.test_case "run_many mismatch" `Quick test_run_many_rejects_mismatch;
        Alcotest.test_case "run_many shared" `Quick test_run_many_shares_subsystem;
        Alcotest.test_case "idle gaps" `Quick test_result_idle_gaps;
        Alcotest.test_case "idle gaps = reference on the suite" `Quick
          test_idle_gaps_suite_reference;
      ] );
    ( "sim.policy",
      [
        Alcotest.test_case "tpm long idle" `Quick test_tpm_spins_down_long_idle;
        Alcotest.test_case "tpm short idle" `Quick test_tpm_ignores_short_idle;
        Alcotest.test_case "atpm inert" `Quick test_atpm_inert_at_break_even;
        Alcotest.test_case "atpm adapts" `Quick test_atpm_threshold_adapts;
        Alcotest.test_case "drpm idle stepping" `Quick test_drpm_idle_steps;
      ] );
    ( "sim.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_base_bounds;
          qcheck_tpm_bounds;
          qcheck_drpm_bounds;
          qcheck_oracles_never_lose;
          qcheck_closed_never_faster;
          qcheck_busy_intervals_sorted_disjoint;
          qcheck_idle_gaps_reference;
        ] );
    ( "sim.oracle",
      [
        Alcotest.test_case "itpm saves" `Quick test_oracle_itpm_matches_plan;
        Alcotest.test_case "itpm short noop" `Quick test_oracle_itpm_short_gap_noop;
        Alcotest.test_case "idrpm saves" `Quick test_oracle_idrpm_beats_base;
        Alcotest.test_case "phases partition" `Quick
          test_oracle_phases_partition_time;
        Alcotest.test_case "serve-slow in slack" `Quick
          test_oracle_serves_slow_in_sparse_burst;
      ] );
  ]
