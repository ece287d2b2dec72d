(* Direct unit tests for Dpm_sim.Oracle on hand-built traces: the
   closed-form schedules must predict the Base replay's idle gaps
   exactly (the oracle is a perfect predictor), never lose to Base, and
   their analytic timelines must carry the per-gap decisions with
   neither missed nor early pre-activations. *)

module Specs = Dpm_disk.Specs
module Rpm = Dpm_disk.Rpm
module Engine = Dpm_sim.Engine
module Policy = Dpm_sim.Policy
module Config = Dpm_sim.Config
module Result = Dpm_sim.Result
module Oracle = Dpm_sim.Oracle
module Timeline = Dpm_sim.Timeline
module Trace = Dpm_trace.Trace
module Request = Dpm_trace.Request

let kib = Dpm_util.Units.kib
let specs = Specs.ultrastar_36z15
let top = Rpm.max_level specs
let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let io ?(think = 0.01) ?(block = 0) () =
  Request.Io
    {
      think;
      disk = 0;
      block;
      bytes = kib 64;
      kind = Request.Read;
      nest = 0;
      iter = 0;
    }

(* Two request clusters on one disk separated by a long, known gap. *)
let two_burst_trace ~gap =
  let burst b0 = List.init 4 (fun i -> io ~block:(b0 + i) ()) in
  let events =
    burst 0 @ [ io ~think:gap ~block:100 () ] @ burst 101
  in
  Trace.make ~tail_think:2.0 ~program:"oracle-t" ~ndisks:1 events

let base_of trace = Engine.run Policy.base trace

(* --- phase structure: bursts and gaps tile the Base timeline --- *)

let test_phases_tile_the_run () =
  let base = base_of (two_burst_trace ~gap:60.0) in
  let phases = Oracle.phases base ~disk:0 in
  (* Walk the phase list: spans must be contiguous from 0 to exec. *)
  let cursor =
    List.fold_left
      (fun cursor ph ->
        let lo, hi =
          match ph with
          | Oracle.Burst { span; _ } -> span
          | Oracle.Gap { span; _ } -> span
        in
        Alcotest.(check bool) "contiguous" true (close lo cursor);
        Alcotest.(check bool) "forward" true (hi >= lo);
        hi)
      0.0 phases
  in
  Alcotest.(check bool) "covers the run" true
    (close cursor base.Result.exec_time);
  (* Two bursts, separated (and followed) by gaps. *)
  let bursts =
    List.filter (function Oracle.Burst _ -> true | _ -> false) phases
  in
  Alcotest.(check int) "two bursts" 2 (List.length bursts)

(* --- prediction correctness: every oracle gap IS a Base idle gap --- *)

let test_gap_plans_match_idle_gaps () =
  let base = base_of (two_burst_trace ~gap:45.0) in
  let idle = Result.idle_gaps base ~disk:0 in
  List.iter
    (fun ((lo, hi), (_ : Dpm_disk.Power.gap_plan)) ->
      Alcotest.(check bool)
        (Printf.sprintf "gap [%g, %g] is a real idle period" lo hi)
        true
        (List.exists
           (fun (a, b) -> close a lo && b >= hi -. 1e-9)
           idle))
    (Oracle.gap_plans base ~disk:0)

(* The Gap_decision marks on the analytic log carry the exact gap
   length — the oracle predictor is never wrong. *)
let test_itpm_predictions_exact () =
  let base = base_of (two_burst_trace ~gap:60.0) in
  let sink = Timeline.sink () in
  let _ = Oracle.itpm ~timeline:sink base in
  let tl = Timeline.contents sink in
  let idle = Result.idle_gaps base ~disk:0 in
  let checked = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Timeline.Mark
          { t; mark = Timeline.Gap_decision { predicted; _ }; _ } ->
          incr checked;
          Alcotest.(check bool)
            (Printf.sprintf "prediction at %g matches the actual gap" t)
            true
            (List.exists
               (fun (a, b) -> close a t && close (b -. a) predicted)
               idle)
      | _ -> ())
    (Timeline.events tl);
  Alcotest.(check int) "one decision per idle gap" (List.length idle) !checked

(* --- optimality guarantees on a profitable gap --- *)

let test_oracle_never_loses () =
  let base = base_of (two_burst_trace ~gap:90.0) in
  let itpm = Oracle.itpm base in
  let idrpm = Oracle.idrpm base in
  Alcotest.(check bool) "ITPM <= Base" true
    (itpm.Result.energy <= base.Result.energy +. 1e-9);
  Alcotest.(check bool) "IDRPM <= Base" true
    (idrpm.Result.energy <= base.Result.energy +. 1e-9);
  (* A 90 s gap is far beyond break-even: both must actually save. *)
  Alcotest.(check bool) "ITPM exploits the long gap" true
    (itpm.Result.energy < base.Result.energy);
  Alcotest.(check bool) "no performance penalty" true
    (itpm.Result.exec_time = base.Result.exec_time
    && idrpm.Result.exec_time = base.Result.exec_time)

(* --- pre-activation accounting --- *)

(* The oracle's spin-ups complete exactly at the next arrival: its log
   must show zero missed and zero early pre-activations. *)
let test_oracle_preactivation_perfect () =
  let base = base_of (two_burst_trace ~gap:90.0) in
  let sink = Timeline.sink () in
  let _ = Oracle.itpm ~timeline:sink base in
  let tl = Timeline.contents sink in
  Alcotest.(check (pair int int)) "perfect timing" (0, 0)
    (Timeline.pre_activation_totals tl);
  match Timeline.check tl with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

(* Reactive TPM has no predictor: the request that ends a long gap
   finds the disk in standby, waits out the spin-up, and the timeline
   scores it as a missed pre-activation. *)
let test_reactive_tpm_misses () =
  let trace = two_burst_trace ~gap:90.0 in
  let sink = Timeline.sink () in
  let r = Engine.run ~timeline:sink (Policy.tpm Config.default) trace in
  let tl = Timeline.contents sink in
  let sums = Timeline.disk_summaries tl in
  Alcotest.(check bool) "TPM spun down" true (sums.(0).Timeline.spin_downs >= 1);
  Alcotest.(check bool) "the wake-up came late" true
    (sums.(0).Timeline.missed_preactivations >= 1);
  Alcotest.(check bool) "requests waited on the transition" true
    (sums.(0).Timeline.wait > 0.0);
  (* And the log still reintegrates and checks. *)
  let e = Timeline.reintegrate tl in
  Alcotest.(check bool) "energy reintegrates" true
    (close e.Timeline.total r.Result.energy);
  match Timeline.check tl with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

(* --- burst serving levels (IDRPM) --- *)

let test_idrpm_serves_within_slack () =
  let base = base_of (two_burst_trace ~gap:60.0) in
  let sink = Timeline.sink () in
  let idrpm = Oracle.idrpm ~timeline:sink base in
  let tl = Timeline.contents sink in
  (* Every reconstructed service fits its burst's extent plus the tail
     slack the oracle grants (a quarter of the following gap). *)
  List.iter
    (fun ev ->
      match ev with
      | Timeline.Service { level; t0; t1; _ } ->
          Alcotest.(check bool) "level in range" true
            (level >= 0 && level <= top);
          Alcotest.(check bool) "service moves forward" true (t1 >= t0)
      | _ -> ())
    (Timeline.events tl);
  (* The analytic energies re-integrate to the reported result. *)
  let e = Timeline.reintegrate tl in
  Alcotest.(check bool) "IDRPM reintegrates" true
    (close e.Timeline.total idrpm.Result.energy)

(* A short idle gap at the very head of the run: the IDRPM fallback
   charges the direct modulation on top of the held level and back-dates
   the ramp span before t = 0.  The analytic checker must accept such
   logs (galgel regression), and they must still re-integrate. *)
let test_idrpm_head_gap_backdated_ramp () =
  let backdated = ref false in
  List.iter
    (fun think ->
      let trace =
        Trace.make ~tail_think:2.0 ~program:"oracle-head" ~ndisks:1
          (io ~think () :: List.init 4 (fun i -> io ~block:(1 + i) ()))
      in
      let base = base_of trace in
      let sink = Timeline.sink () in
      let idrpm = Oracle.idrpm ~timeline:sink base in
      let tl = Timeline.contents sink in
      List.iter
        (function
          | Timeline.Span { t0; _ } when t0 < 0.0 -> backdated := true
          | _ -> ())
        (Timeline.events tl);
      (match Timeline.check tl with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "head gap %g: %s" think (String.concat "; " es));
      let e = Timeline.reintegrate tl in
      Alcotest.(check bool)
        (Printf.sprintf "head gap %g reintegrates" think)
        true
        (close e.Timeline.total idrpm.Result.energy))
    [ 1e-5; 1e-4; 1e-3; 0.2; 0.5; 1.0; 2.0; 5.0 ];
  Alcotest.(check bool) "some width back-dates the ramp" true !backdated

(* A whole-disk failure freezes the Base replay's disk from its kill
   on (no service, no power), so the oracles price that disk only up to
   the kill.  Under the fault smoke's spec (swim, disk 0 dead at 30 s)
   neither oracle spends more than Base, and each analytic log closes
   the dead disk's lane with a [Killed] mark where its coverage ends,
   checks clean and reintegrates to the reported energy. *)
let test_oracles_stop_at_kill () =
  let module Run = Dpm_core.Run in
  let module Scheme = Dpm_core.Scheme in
  let faults =
    match
      Dpm_sim.Fault.of_string
        "seed=7,read=0.01,bad=0.005,spinfail=0.25,fail=0@30"
    with
    | Ok f -> f
    | Error e -> failwith e
  in
  let sinks =
    List.map (fun s -> (s, Timeline.sink ())) Scheme.[ Itpm; Idrpm ]
  in
  match
    Run.exec_all
      (Run.spec
         ~schemes:Scheme.[ Base; Itpm; Idrpm ]
         ~faults
         ~timeline:(fun s -> List.assoc_opt s sinks)
         (Run.Benchmark "swim"))
  with
  | Error e -> Alcotest.fail (Run.error_message e)
  | Ok results ->
      let base = List.assoc Scheme.Base results in
      let kill =
        match base.Result.disks.(0).Result.killed_at with
        | Some k -> k
        | None -> Alcotest.fail "disk 0 survived the Base replay"
      in
      Alcotest.(check bool) "killed before the run ends" true
        (kill < base.Result.exec_time);
      List.iter
        (fun (scheme, sink) ->
          let name = Scheme.name scheme in
          let r = List.assoc scheme results in
          (* To rounding: where ITPM keeps every gap at full speed, as
             swim's short gaps make it, it sums Base's energy in another
             order.  Pricing the dead disk's gaps cost 21 J (0.8%). *)
          Alcotest.(check bool)
            (Printf.sprintf "%s %.17g J <= Base %.17g J" name r.Result.energy
               base.Result.energy)
            true
            (r.Result.energy <= base.Result.energy *. (1.0 +. 1e-9));
          let tl = Timeline.contents sink in
          (match Timeline.check tl with
          | Ok () -> ()
          | Error es -> Alcotest.failf "%s: %s" name (String.concat "; " es));
          let e = Timeline.reintegrate tl in
          Alcotest.(check bool)
            (name ^ " reintegrates")
            true
            (close e.Timeline.total r.Result.energy);
          Alcotest.(check bool)
            (name ^ " marks the kill")
            true
            (List.exists
               (function
                 | Timeline.Mark { disk = 0; t; mark = Timeline.Killed } ->
                     t = kill
                 | _ -> false)
               (Timeline.events tl)))
        sinks

let suite =
  [
    ( "oracle",
      [
        Alcotest.test_case "phases tile the run" `Quick test_phases_tile_the_run;
        Alcotest.test_case "oracles stop at a dead disk" `Quick
          test_oracles_stop_at_kill;
        Alcotest.test_case "gap plans match idle gaps" `Quick
          test_gap_plans_match_idle_gaps;
        Alcotest.test_case "predictions exact" `Quick
          test_itpm_predictions_exact;
        Alcotest.test_case "oracle never loses" `Quick test_oracle_never_loses;
        Alcotest.test_case "oracle pre-activation perfect" `Quick
          test_oracle_preactivation_perfect;
        Alcotest.test_case "reactive TPM misses" `Quick
          test_reactive_tpm_misses;
        Alcotest.test_case "IDRPM serves within slack" `Quick
          test_idrpm_serves_within_slack;
        Alcotest.test_case "IDRPM head gap back-dates ramp" `Quick
          test_idrpm_head_gap_backdated_ramp;
      ] );
  ]
