(* Tests for Dpm_sim.Timeline: the independent re-integrator must agree
   with the engine's running energy accumulation on every scheme, the
   invariant checker must accept every log the engine and the oracle
   emit, recording must be strictly observational (a sink never changes
   a Result), and logs must be bit-identical whatever the domain
   count. *)

module Ir = Dpm_ir
module Plan = Dpm_layout.Plan
module Timeline = Dpm_sim.Timeline
module Engine = Dpm_sim.Engine
module Policy = Dpm_sim.Policy
module Result = Dpm_sim.Result
module Trace = Dpm_trace.Trace
module Request = Dpm_trace.Request
module Scheme = Dpm_core.Scheme
module Experiment = Dpm_core.Experiment
module Pool = Dpm_util.Pool

let kib = Dpm_util.Units.kib
let parse = Ir.Parser.program ~name:"tl"

let contains s sub =
  let n = String.length sub in
  let rec find i =
    i + n <= String.length s && (String.sub s i n = sub || find (i + 1))
  in
  find 0

(* Acceptance tolerance: reintegrated energy within 1e-9 relative. *)
let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let check_ok label tl =
  match Timeline.check tl with
  | Ok () -> ()
  | Error es ->
      Alcotest.fail
        (Printf.sprintf "%s: %d violation(s): %s" label (List.length es)
           (String.concat "; " es))

(* Per-disk residency items must partition [0, sim_end]: busy intervals,
   spans and aborted spin-ups cover the whole run with no overlap, so
   their durations sum exactly to the last residency's end, which is
   never before sim_end (a transition still in flight when the
   application completes may extend the final span past it — the engine
   charges the whole transition).  Contiguity itself is Timeline.check's
   job; this asserts the sums. *)
let assert_partition label tl =
  let nd = Timeline.ndisks tl in
  let s_end = Timeline.sim_end tl in
  let occupied = Array.make (max 1 nd) 0.0 in
  let last_end = Array.make (max 1 nd) 0.0 in
  List.iter
    (fun ev ->
      match ev with
      | Timeline.Span { disk; t0; t1; _ }
      | Timeline.Service { disk; t0; t1; _ }
      | Timeline.Occupy { disk; t0; t1; _ }
      | Timeline.Aborted { disk; t0; t1; _ } ->
          occupied.(disk) <- occupied.(disk) +. (t1 -. t0);
          last_end.(disk) <- Float.max last_end.(disk) t1
      | Timeline.Mark _ | Timeline.Sim_end _ -> ())
    (Timeline.events tl);
  Array.iteri
    (fun d total ->
      if not (close total last_end.(d)) then
        Alcotest.fail
          (Printf.sprintf
             "%s: disk %d residencies sum to %.12g but end at %.12g" label d
             total last_end.(d));
      if last_end.(d) < s_end -. (1e-9 *. Float.max 1.0 s_end) then
        Alcotest.fail
          (Printf.sprintf "%s: disk %d covered only [0, %.12g] of [0, %.12g]"
             label d last_end.(d) s_end))
    occupied

(* The full contract one scheme's log must satisfy against its Result. *)
let assert_log_matches label (r : Result.t) tl =
  Alcotest.(check string) (label ^ ": scheme label") r.Result.scheme
    (Timeline.scheme tl);
  Alcotest.(check string) (label ^ ": program label") r.Result.program
    (Timeline.program tl);
  Alcotest.(check int)
    (label ^ ": one lane per disk")
    (Array.length r.Result.disks) (Timeline.ndisks tl);
  Alcotest.(check bool)
    (label ^ ": sim_end = exec_time")
    true
    (Timeline.sim_end tl = r.Result.exec_time);
  let e = Timeline.reintegrate tl in
  if not (close e.Timeline.total r.Result.energy) then
    Alcotest.fail
      (Printf.sprintf "%s: reintegrated %.12g J, result says %.12g J" label
         e.Timeline.total r.Result.energy);
  Array.iteri
    (fun d (ds : Result.disk_stats) ->
      if not (close e.Timeline.per_disk.(d) ds.Result.energy) then
        Alcotest.fail
          (Printf.sprintf "%s: disk %d reintegrates to %.12g J, not %.12g J"
             label d
             e.Timeline.per_disk.(d)
             ds.Result.energy))
    r.Result.disks;
  check_ok label tl;
  if not (Timeline.is_analytic tl) then assert_partition label tl

(* Run every requested scheme with a private sink each and hand back
   (scheme, result, frozen log) triples. *)
let logged_run_all ?setup ?(schemes = Scheme.all) p plan =
  let sinks = List.map (fun s -> (s, Timeline.sink ())) schemes in
  let results =
    Experiment.run_all ?setup ~timeline:(fun s -> List.assoc_opt s sinks)
      ~schemes p plan
  in
  List.map
    (fun (s, r) -> (s, r, Timeline.contents (List.assoc s sinks)))
    results

(* A small workload with real per-disk phase structure: nest 0 touches
   only A (disks 0-1), nest 1 only B (disks 2-3), so both DRPM gaps and
   TPM-sized idleness exist. *)
let phased_workload () =
  let p =
    parse
      {|
array A[24] : 8192
array B[24] : 8192
for i = 0 to 23 { use A[i] work 600000000 }
for i = 0 to 23 { use B[i] work 600000000 }
|}
  in
  let plan =
    Plan.make ~ndisks:4
      [
        {
          Plan.decl = Ir.Program.find_array p "A";
          striping =
            Dpm_layout.Striping.make ~start_disk:0 ~stripe_factor:2
              ~stripe_size:(kib 64);
          order = Plan.Row_major;
        };
        {
          Plan.decl = Ir.Program.find_array p "B";
          striping =
            Dpm_layout.Striping.make ~start_disk:2 ~stripe_factor:2
              ~stripe_size:(kib 64);
          order = Plan.Row_major;
        };
      ]
  in
  (p, plan)

let test_all_schemes_reintegrate () =
  let p, plan = phased_workload () in
  let logged = logged_run_all p plan in
  Alcotest.(check int) "seven schemes ran" 7 (List.length logged);
  List.iter
    (fun (s, r, tl) -> assert_log_matches (Scheme.name s) r tl)
    logged;
  (* The ideal schemes emit analytic logs, the replayed ones do not. *)
  List.iter
    (fun (s, _, tl) ->
      Alcotest.(check bool)
        (Scheme.name s ^ ": analytic iff ideal")
        (Scheme.is_ideal s) (Timeline.is_analytic tl))
    logged

(* Random workloads x all seven schemes x random seeds: the acceptance
   criterion as a property. *)
let qcheck_reintegration =
  QCheck2.Test.make ~count:6
    ~name:"timeline: reintegrate = Result.energy on random workloads"
    QCheck2.Gen.(
      quad (int_range 6 28) (int_range 1 3) (int_range 1 12)
        (int_range 0 10_000))
    (fun (elems, nests, work_scale, seed) ->
      let nest =
        Printf.sprintf "for i = 0 to %d { use A[i] work %d }" (elems - 1)
          (work_scale * 100_000_000)
      in
      let src =
        Printf.sprintf "array A[%d] : 8192\n%s\n" elems
          (String.concat "\n" (List.init nests (fun _ -> nest)))
      in
      let p = parse src in
      let plan = Plan.uniform ~ndisks:8 p in
      let setup =
        Experiment.make_setup
          ~noise:(float_of_int (seed mod 4) *. 0.05)
          ~seed ()
      in
      List.for_all
        (fun (s, r, tl) ->
          let e = Timeline.reintegrate tl in
          close e.Timeline.total r.Result.energy
          && Timeline.check tl = Ok ()
          && (Timeline.is_analytic tl
             ||
             (assert_partition (Scheme.name s) tl;
              true)))
        (logged_run_all ~setup p plan))

(* Recording must not perturb the replay: with and without a sink,
   every scheme's Result is structurally identical. *)
let test_observer_effect () =
  let p, plan = phased_workload () in
  let plain = Experiment.run_all p plan in
  let logged = logged_run_all p plan in
  List.iter2
    (fun (s, r) (s', r', _) ->
      Alcotest.(check bool) "same scheme order" true (s = s');
      Alcotest.(check bool)
        (Scheme.name s ^ ": result unchanged by recording")
        true (r = r'))
    plain logged;
  Alcotest.(check string) "byte-identical results"
    (Digest.to_hex (Digest.string (Marshal.to_string plain [])))
    (Digest.to_hex
       (Digest.string
          (Marshal.to_string (List.map (fun (s, r, _) -> (s, r)) logged) [])))

(* Timelines must be bit-identical whichever domain records them
   (sinks are per-replay, share-nothing). *)
let test_domain_determinism () =
  let p, plan = phased_workload () in
  let grid domains =
    Pool.map ~domains
      (fun scheme ->
        let sink = Timeline.sink () in
        let r =
          Experiment.run ~timeline:sink scheme p plan
        in
        (scheme, r, Timeline.events (Timeline.contents sink)))
      Scheme.all
  in
  let d1 = grid 1 and d4 = grid 4 in
  Alcotest.(check bool) "1 vs 4 domains structurally equal" true (d1 = d4);
  Alcotest.(check string) "byte-identical timelines"
    (Digest.to_hex (Digest.string (Marshal.to_string d1 [])))
    (Digest.to_hex (Digest.string (Marshal.to_string d4 [])))

(* Directive marks: an accepted PM call leaves its mark on the lane. *)
let test_directive_marks () =
  let io think block = Gen.io ~think ~block () in
  let events =
    [
      io 0.01 0;
      Request.Pm { think = 0.0; directive = Request.Spin_down 0 };
      Request.Pm { think = 20.0; directive = Request.Spin_up 0 };
      (* The spin-up takes t_spin_up = 10.9 s; a 15 s think means it
         completes ~4 s before the request — an early pre-activation. *)
      io 15.0 1;
      Request.Pm
        { think = 0.1; directive = Request.Set_rpm { level = 0; disk = 0 } };
      io 8.0 2;
    ]
  in
  let trace = Trace.make ~tail_think:1.0 ~program:"tl-t" ~ndisks:1 events in
  let sink = Timeline.sink () in
  let r = Engine.run ~timeline:sink Policy.cm_drpm trace in
  let tl = Timeline.contents sink in
  assert_log_matches "directives" r tl;
  let count m =
    List.length
      (List.filter
         (function Timeline.Mark { mark; _ } -> mark = m | _ -> false)
         (Timeline.events tl))
  in
  Alcotest.(check int) "spin_down mark" 1 (count Timeline.Directive_spin_down);
  Alcotest.(check int) "spin_up mark" 1 (count Timeline.Directive_spin_up);
  Alcotest.(check int) "set_rpm mark" 1
    (count (Timeline.Directive_set_rpm 0));
  let sums = Timeline.disk_summaries tl in
  Alcotest.(check int) "one spin-down run" 1 sums.(0).Timeline.spin_downs;
  Alcotest.(check bool) "standby time recorded" true
    (sums.(0).Timeline.standby > 0.0);
  (* The commanded spin-up completes well before the next request: the
     pre-activation analysis must score it early, not missed. *)
  Alcotest.(check (pair int int)) "early, never missed" (0, 1)
    (Timeline.pre_activation_totals tl)

(* JSONL round-trip: what write_jsonl emits, read_jsonl restores —
   events, labels and the analytic flag, for several logs per file,
   including a label that needs JSON escaping. *)
let test_jsonl_round_trip () =
  let p, plan = phased_workload () in
  let logged =
    logged_run_all ~schemes:[ Scheme.Cmdrpm; Scheme.Idrpm ] p plan
  in
  let escaped =
    let sink = Timeline.sink () in
    Timeline.set_label sink ~scheme:"Base" ~program:"my\"prog\\x";
    Timeline.emit sink (Timeline.Sim_end 1.5);
    Timeline.contents sink
  in
  let logs = List.map (fun (_, _, tl) -> tl) logged @ [ escaped ] in
  let path = Filename.temp_file "dpm_timeline" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iter (fun tl -> Timeline.write_jsonl tl oc) logs;
      close_out oc;
      let ic = open_in path in
      let back =
        match
          Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
              Timeline.read_jsonl ic)
        with
        | Ok back -> back
        | Error m -> Alcotest.fail m
      in
      Alcotest.(check int) "three sections" 3 (List.length back);
      List.iter2
        (fun tl tl' ->
          Alcotest.(check string) "scheme" (Timeline.scheme tl)
            (Timeline.scheme tl');
          Alcotest.(check string) "program" (Timeline.program tl)
            (Timeline.program tl');
          Alcotest.(check bool) "analytic flag" (Timeline.is_analytic tl)
            (Timeline.is_analytic tl');
          Alcotest.(check bool) "events round-trip" true
            (Timeline.events tl = Timeline.events tl'))
        logs back)

(* CSV export: one data row per event under a fixed header. *)
let test_csv_shape () =
  let p, plan = phased_workload () in
  let logged = logged_run_all ~schemes:[ Scheme.Drpm ] p plan in
  let _, _, tl = List.hd logged in
  let path = Filename.temp_file "dpm_timeline" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Timeline.write_csv tl oc;
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "header + one row per event"
        (1 + List.length (Timeline.events tl))
        (List.length lines);
      Alcotest.(check bool) "header names the columns" true
        (match lines with
        | h :: _ -> String.length h > 0 && String.sub h 0 3 = "ev,"
        | [] -> false))

(* Rendering smoke: the summary names every disk, the gantt has one
   lane per disk, and the verdict line reports clean invariants. *)
let test_summary_rendering () =
  let p, plan = phased_workload () in
  let logged = logged_run_all ~schemes:[ Scheme.Cmdrpm ] p plan in
  let _, r, tl = List.hd logged in
  let s = Timeline.summary tl in
  Alcotest.(check bool) "mentions the scheme" true (contains s r.Result.scheme);
  Alcotest.(check bool) "invariants ok" true (contains s "invariants: ok");
  let lanes = Timeline.gantt ~width:40 tl in
  let lane_count =
    List.length
      (List.filter (fun l -> l <> "") (String.split_on_char '\n' lanes))
  in
  Alcotest.(check int) "one lane per disk" (Timeline.ndisks tl) lane_count;
  (* Millisecond services never dominate a bucket of this long a run;
     the idle categories must. *)
  Alcotest.(check bool) "idle columns present" true
    (String.contains lanes '=' || String.contains lanes '~')

(* The checker must actually reject broken logs, or the acceptance
   criterion "zero violations" is vacuous. *)
let test_check_rejects_illegal_logs () =
  let violations evs =
    let s = Timeline.sink () in
    List.iter (Timeline.emit s) evs;
    match Timeline.check (Timeline.contents s) with
    | Ok () -> 0
    | Error es -> List.length es
  in
  let top = Dpm_disk.Rpm.max_level Dpm_disk.Specs.ultrastar_36z15 in
  let ready a b =
    Timeline.Span { disk = 0; state = Timeline.Ready top; t0 = a; t1 = b }
  in
  (* A clean lane passes. *)
  Alcotest.(check int) "clean lane" 0
    (violations [ ready 0.0 1.0; ready 1.0 2.0; Timeline.Sim_end 2.0 ]);
  (* Overlap / gap between residencies. *)
  Alcotest.(check bool) "overlap rejected" true
    (violations [ ready 0.0 1.0; ready 0.9 2.0; Timeline.Sim_end 2.0 ] > 0);
  Alcotest.(check bool) "hole rejected" true
    (violations [ ready 0.0 1.0; ready 1.5 2.0; Timeline.Sim_end 2.0 ] > 0);
  (* Standby cannot follow ready without a spin-down. *)
  Alcotest.(check bool) "teleport to standby rejected" true
    (violations
       [
         ready 0.0 1.0;
         Timeline.Span
           { disk = 0; state = Timeline.Standby; t0 = 1.0; t1 = 2.0 };
         Timeline.Sim_end 2.0;
       ]
    > 0);
  (* A lane that stops early without a kill. *)
  Alcotest.(check bool) "truncated lane rejected" true
    (violations [ ready 0.0 1.0; Timeline.Sim_end 2.0 ] > 0);
  (* Negative durations. *)
  Alcotest.(check bool) "negative span rejected" true
    (violations [ ready 1.0 0.5 ] > 0)

(* Per-queue legality: the [Dispatch]-mark checker must replay each
   discipline's pick and reject reordered or fabricated scheduler logs,
   and [Service] intervals on one disk must never overlap. *)
let test_check_rejects_illegal_queues () =
  let module Config = Dpm_sim.Config in
  let violations ?(analytic = false) evs =
    let s = Timeline.sink () in
    if analytic then Timeline.set_analytic s;
    List.iter (Timeline.emit s) evs;
    match Timeline.check (Timeline.contents s) with
    | Ok () -> 0
    | Error es -> List.length es
  in
  let top = Dpm_disk.Rpm.max_level Dpm_disk.Specs.ultrastar_36z15 in
  let ready a b =
    Timeline.Span { disk = 0; state = Timeline.Ready top; t0 = a; t1 = b }
  in
  let svc arrival a b =
    Timeline.Service { disk = 0; level = top; arrival; t0 = a; t1 = b; bytes = 512 }
  in
  let disp ?(disc = Config.Sstf) t pos arrival =
    Timeline.Mark { disk = 0; t; mark = Timeline.Dispatch { disc; pos; arrival } }
  in
  (* Spans and services tile the lane (the residency checker demands
     contiguity); the idle rest of [0, 10] is one ready span. *)
  let lane evs = (ready 0.0 10.0 :: evs) @ [ Timeline.Sim_end 10.0 ] in
  (* A legal SSTF lane: nearest-first, work-conserving, 1:1 services. *)
  Alcotest.(check int) "legal sstf lane" 0
    (violations
       [
         disp 0.0 2 0.0;
         svc 0.0 0.0 1.0;
         disp 1.0 9 0.0;
         svc 0.0 1.0 2.0;
         ready 2.0 10.0;
         Timeline.Sim_end 10.0;
       ]);
  (* SSTF must not seek past a strictly-nearer queued request. *)
  Alcotest.(check bool) "sstf skip rejected" true
    (violations (lane [ disp 0.5 9 0.0; disp 1.0 2 0.0 ]) > 0);
  (* No dispatch before its request arrived. *)
  Alcotest.(check bool) "dispatch before arrival rejected" true
    (violations (lane [ disp 0.0 2 1.0 ]) > 0);
  (* Dispatch times must be monotone per queue. *)
  Alcotest.(check bool) "non-monotone dispatches rejected" true
    (violations (lane [ disp 2.0 2 0.0; disp 1.0 3 0.0 ]) > 0);
  (* FCFS serves strictly by arrival order. *)
  Alcotest.(check bool) "fcfs reorder rejected" true
    (violations
       (lane
          [
            disp ~disc:Config.Fcfs 1.0 0 0.9;
            disp ~disc:Config.Fcfs 2.0 1 0.1;
          ])
    > 0);
  (* SCAN may not reverse below the head while an upward request is
     queued. *)
  Alcotest.(check bool) "scan reversal rejected" true
    (violations
       (lane
          [
            disp ~disc:Config.Scan 0.0 5 0.0;
            disp ~disc:Config.Scan 1.0 2 0.0;
            disp ~disc:Config.Scan 2.0 7 0.0;
          ])
    > 0);
  (* A C-LOOK wrap must land on the lowest queued position. *)
  Alcotest.(check bool) "c-look wrap rejected" true
    (violations
       (lane
          [
            disp ~disc:Config.Clook 0.0 5 0.0;
            disp ~disc:Config.Clook 1.0 3 0.0;
            disp ~disc:Config.Clook 2.0 1 0.0;
          ])
    > 0);
  (* Work conservation: a clean 1:1 lane may not idle past the earliest
     queued arrival. *)
  Alcotest.(check bool) "idling dispatch rejected" true
    (violations
       [
         disp 0.0 2 0.0;
         svc 0.0 0.0 1.0;
         ready 1.0 5.0;
         disp 5.0 9 0.0;
         svc 0.0 5.0 6.0;
         ready 6.0 10.0;
         Timeline.Sim_end 10.0;
       ]
    > 0);
  (* Overlapping service intervals on one disk: the per-queue pass fires
     even in analytic mode, where the residency tiling rules would not. *)
  Alcotest.(check bool) "overlapping services rejected" true
    (violations ~analytic:true
       (lane [ svc 0.0 1.0 3.0; svc 0.0 2.0 4.0 ])
    > 0)

(* A homogeneous array on a non-default model names that model in its
   log, so every reader prices the lanes with it: each scheme's report
   verdicts hold, and the JSONL read back re-integrates to the run's
   energy. *)
let test_non_default_model_label () =
  let module Run = Dpm_core.Run in
  let module Json = Dpm_util.Json in
  List.iter
    (fun specs ->
      let name = Dpm_disk.Specs.name_of specs in
      let spec =
        Run.spec ~sim:(Dpm_sim.Config.make ~specs ()) (Run.Benchmark "galgel")
      in
      (match Dpm_core.Report.of_spec spec with
      | Error e -> Alcotest.fail (Run.error_message e)
      | Ok doc ->
          List.iter
            (fun row ->
              let verdict key =
                Option.bind (Json.member "timeline" row) (Json.member key)
              in
              List.iter
                (fun key ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: %s" name key)
                    true
                    (verdict key = Some (Json.Bool true)))
                [ "energy_match"; "invariants_ok" ])
            (Option.get (Option.bind (Json.member "schemes" doc) Json.to_list)));
      let sinks = List.map (fun s -> (s, Timeline.sink ())) Scheme.all in
      let results =
        match
          Run.exec_all
            (Run.with_timeline (fun s -> List.assoc_opt s sinks) spec)
        with
        | Ok rs -> rs
        | Error e -> Alcotest.fail (Run.error_message e)
      in
      let path = Filename.temp_file "dpm_timeline" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc ->
              List.iter
                (fun (s, _) ->
                  Timeline.write_jsonl (Timeline.contents (List.assoc s sinks)) oc)
                results);
          match In_channel.with_open_bin path Timeline.read_jsonl with
          | Error m -> Alcotest.fail m
          | Ok logs ->
              List.iter2
                (fun (s, r) tl ->
                  Alcotest.(check (list string))
                    (Scheme.name s ^ ": model label") [ name ] (Timeline.fleet tl);
                  let e = Timeline.reintegrate tl in
                  if not (close e.Timeline.total r.Result.energy) then
                    Alcotest.failf "%s %s: reintegrated %.12g J, result says %.12g J"
                      name (Scheme.name s) e.Timeline.total r.Result.energy)
                results logs))
    Dpm_disk.Specs.[ ultrastar_36lzx; flash ]

(* Hostile JSONL: a negative disk id, a level off the model's ladder and
   a garbage line each come back as an [Error] naming the line, never as
   an exception from the reader or from a later analysis. *)
let test_read_jsonl_rejects_hostile_lines () =
  let read text =
    let path = Filename.temp_file "dpm_timeline" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        In_channel.with_open_bin path Timeline.read_jsonl)
  in
  let meta = {|{"ev":"meta","scheme":"Base","program":"p","analytic":false}|} in
  List.iter
    (fun (label, line) ->
      match read (meta ^ "\n" ^ line ^ "\n") with
      | Ok _ -> Alcotest.failf "%s: read back without an error" label
      | Error m ->
          Alcotest.(check bool)
            (label ^ ": names line 2") true (contains m "line 2"))
    [
      ("negative disk", {|{"ev":"span","disk":-1,"state":"ready","level":0,"t0":0,"t1":1}|});
      ( "disk id at Trace.max_disks",
        Printf.sprintf
          {|{"ev":"span","disk":%d,"state":"ready","level":0,"t0":0,"t1":1}|}
          Dpm_trace.Trace.max_disks );
      ("level off the ladder", {|{"ev":"span","disk":0,"state":"ready","level":99,"t0":0,"t1":1}|});
      ("garbage", "not json {");
    ];
  (* A clean section still reads. *)
  match read (meta ^ "\n" ^ {|{"ev":"end","t":1}|} ^ "\n") with
  | Ok [ tl ] -> Alcotest.(check (float 0.0)) "sim end" 1.0 (Timeline.sim_end tl)
  | Ok _ -> Alcotest.fail "expected one section"
  | Error m -> Alcotest.fail m

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "timeline",
      [
        Alcotest.test_case "all seven schemes reintegrate" `Quick
          test_all_schemes_reintegrate;
        q qcheck_reintegration;
        Alcotest.test_case "recording is observational" `Quick
          test_observer_effect;
        Alcotest.test_case "bit-identical across domains" `Quick
          test_domain_determinism;
        Alcotest.test_case "directive marks" `Quick test_directive_marks;
        Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_round_trip;
        Alcotest.test_case "csv shape" `Quick test_csv_shape;
        Alcotest.test_case "summary rendering" `Quick test_summary_rendering;
        Alcotest.test_case "checker rejects illegal logs" `Quick
          test_check_rejects_illegal_logs;
        Alcotest.test_case "checker rejects illegal queues" `Quick
          test_check_rejects_illegal_queues;
        Alcotest.test_case "non-default model labels its log" `Quick
          test_non_default_model_label;
        Alcotest.test_case "reader rejects hostile lines" `Quick
          test_read_jsonl_rejects_hostile_lines;
      ] );
  ]
