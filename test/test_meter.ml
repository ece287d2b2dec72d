(* Tests for Dpm_sim.Meter, the streaming software-defined power meter:
   window semantics must be exact on hand-built event streams, the
   sample integral must reproduce Result.energy across every scheme,
   fleet and fault mix (the PR's acceptance criterion, ≤ 1e-6
   relative), metering must be strictly observational, live attachment
   must equal offline re-metering, the dpm-meter/1 wire form must
   round-trip bit-exactly, and the Ring/Histo substrate must behave. *)

module Timeline = Dpm_sim.Timeline
module Meter = Dpm_sim.Meter
module Config = Dpm_sim.Config
module Fault = Dpm_sim.Fault
module Result = Dpm_sim.Result
module Scheme = Dpm_core.Scheme
module Experiment = Dpm_core.Experiment
module Trace = Dpm_trace.Trace
module Specs = Dpm_disk.Specs
module Power = Dpm_disk.Power
module Rpm = Dpm_disk.Rpm
module Ring = Dpm_util.Ring
module Histo = Dpm_util.Histo

let specs = Config.default.Config.specs
let top = Rpm.max_level specs

(* The acceptance tolerance: meter integral within 1e-6 relative. *)
let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b)

let feed_all m evs =
  List.iter (Meter.feed m) evs;
  Meter.finish m

(* --- window semantics on hand-built streams --- *)

let test_window_semantics () =
  let m = Meter.create ~resolution:0.25 ~specs () in
  feed_all m
    [
      Timeline.Span { disk = 0; state = Timeline.Ready top; t0 = 0.0; t1 = 1.0 };
      Timeline.Sim_end 1.0;
    ];
  let idle = Power.idle specs ~level:top in
  Alcotest.(check int) "four windows" 4 (Meter.nwindows m);
  let ss = Meter.samples m in
  Alcotest.(check int) "four samples" 4 (List.length ss);
  List.iteri
    (fun i (s : Meter.sample) ->
      Alcotest.(check int) "index" i s.Meter.index;
      Alcotest.(check (float 1e-12)) "window start" (0.25 *. float_of_int i)
        s.Meter.t0;
      Alcotest.(check (float 1e-12)) "flat idle power" idle s.Meter.watts)
    ss;
  Alcotest.(check (float 1e-9)) "integral = idle × 1 s" idle
    (Meter.integral m).Timeline.total;
  Alcotest.(check (float 1e-12)) "peak = idle" idle (Meter.peak_power m);
  Alcotest.(check (float 1e-12)) "mean = idle" idle (Meter.mean_power m)

let test_truncated_last_window () =
  let m = Meter.create ~resolution:0.25 ~specs () in
  feed_all m
    [
      Timeline.Span { disk = 0; state = Timeline.Ready top; t0 = 0.0; t1 = 0.9 };
      Timeline.Sim_end 0.9;
    ];
  let idle = Power.idle specs ~level:top in
  Alcotest.(check int) "ceil(0.9/0.25) windows" 4 (Meter.nwindows m);
  let last = List.nth (Meter.samples m) 3 in
  Alcotest.(check (float 1e-12)) "last window truncated at horizon" 0.9
    last.Meter.t1;
  Alcotest.(check (float 1e-12)) "still mean power" idle last.Meter.watts;
  Alcotest.(check (float 1e-9)) "integral = idle × 0.9 s" (idle *. 0.9)
    (Meter.integral m).Timeline.total

let test_boundary_split_and_zero_width () =
  (* A service straddling a window boundary deposits pro-rated; a
     zero-width span is skipped; a zero-width aborted spin-up lumps its
     energy into the window containing t0. *)
  let m = Meter.create ~resolution:1.0 ~specs () in
  let active = Power.active specs ~level:top in
  feed_all m
    [
      Timeline.Service
        {
          disk = 0;
          level = top;
          arrival = 0.5;
          t0 = 0.5;
          t1 = 1.5;
          bytes = 512;
        };
      Timeline.Span
        { disk = 0; state = Timeline.Spinning_up; t0 = 1.5; t1 = 1.5 };
      Timeline.Aborted { disk = 0; t0 = 1.5; t1 = 1.5; fraction = 0.5 };
      Timeline.Sim_end 2.0;
    ];
  let e_abort = Power.aborted_spin_up_energy specs ~fraction:0.5 in
  (match Meter.samples m with
  | [ s0; s1 ] ->
      Alcotest.(check (float 1e-9)) "half the service in window 0"
        (active /. 2.0) s0.Meter.watts;
      Alcotest.(check (float 1e-9)) "other half + the aborted lump"
        ((active /. 2.0) +. e_abort)
        s1.Meter.watts
  | ss -> Alcotest.failf "expected 2 samples, got %d" (List.length ss));
  Alcotest.(check (float 1e-9)) "integral = service + abort"
    (active +. e_abort)
    (Meter.integral m).Timeline.total

let test_live_closing () =
  (* Windows close as soon as the lane frontier passes them, without
     waiting for finish. *)
  let closed = ref [] in
  let m =
    Meter.create ~resolution:0.5 ~specs
      ~on_sample:(fun s -> closed := s.Meter.index :: !closed)
      ()
  in
  Meter.feed m
    (Timeline.Span { disk = 0; state = Timeline.Ready top; t0 = 0.0; t1 = 2.0 });
  Alcotest.(check (list int)) "nothing closed at frontier 0" [] !closed;
  Meter.feed m
    (Timeline.Span
       { disk = 0; state = Timeline.Standby; t0 = 2.0; t1 = 3.0 });
  Alcotest.(check (list int))
    "frontier 2.0 closes windows 0-3" [ 0; 1; 2; 3 ] (List.rev !closed);
  Meter.finish m;
  Alcotest.(check int) "finish closes the rest" 6 (List.length !closed)

let test_capacity_bound () =
  let m = Meter.create ~resolution:0.1 ~specs ~capacity:4 () in
  feed_all m
    [
      Timeline.Span { disk = 0; state = Timeline.Ready top; t0 = 0.0; t1 = 2.0 };
      Timeline.Sim_end 2.0;
    ];
  let idle = Power.idle specs ~level:top in
  Alcotest.(check int) "only 4 retained" 4 (List.length (Meter.samples m));
  Alcotest.(check int) "16 dropped" 16 (Meter.dropped m);
  Alcotest.(check (float 1e-9)) "integral exact despite eviction"
    (idle *. 2.0)
    (Meter.integral m).Timeline.total

(* --- the acceptance criterion: integral = Result.energy --- *)

let meter_run_all ?setup ?(resolution = 0.05) ~fleet ?(schemes = Scheme.all)
    source =
  let meters =
    List.map
      (fun s ->
        let sink = Timeline.sink () in
        let m = Meter.create ~resolution ~specs ~fleet () in
        Meter.attach m sink;
        (s, (sink, m)))
      schemes
  in
  let results =
    Experiment.replay_all ?setup
      ~timeline:(fun s -> Option.map fst (List.assoc_opt s meters))
      ~schemes source
  in
  List.map
    (fun (s, r) ->
      let m = snd (List.assoc s meters) in
      Meter.finish m;
      (s, r, m))
    results

let assert_integral_matches label (r : Result.t) m =
  let e = Meter.integral m in
  if not (close e.Timeline.total r.Result.energy) then
    Alcotest.failf "%s: meter integral %.12g J, result says %.12g J" label
      e.Timeline.total r.Result.energy;
  Array.iteri
    (fun d (ds : Result.disk_stats) ->
      let got =
        if d < Array.length e.Timeline.per_disk then e.Timeline.per_disk.(d)
        else 0.0
      in
      if not (close got ds.Result.energy) then
        Alcotest.failf "%s: disk %d meters %.12g J, not %.12g J" label d got
          ds.Result.energy)
    r.Result.disks

let test_faulty_heterogeneous_acceptance () =
  (* The PR's pinned acceptance configuration: all seven schemes over a
     heterogeneous fleet with every fault class enabled. *)
  let fleet =
    [| Specs.ultrastar_36z15; Specs.flash; Specs.ultrastar_36lzx |]
  in
  let sim = Config.default |> Config.with_fleet fleet in
  let setup = Experiment.make_setup ~sim ~faults:Gen.fault_spec () in
  let trace = Gen.busy_trace ~n:300 ~ndisks:4 () in
  let logged =
    meter_run_all ~setup ~fleet (fun () -> Trace.Stream.of_trace trace)
  in
  Alcotest.(check int) "seven schemes ran" 7 (List.length logged);
  List.iter
    (fun (s, r, m) -> assert_integral_matches (Scheme.name s) r m)
    logged

let qcheck_integral =
  QCheck2.Test.make ~count:8
    ~name:"meter: integral = Result.energy (schemes × fleets × faults)"
    QCheck2.Gen.(tup3 Gen.gen_trace Gen.gen_fleet bool)
    (fun (trace, fleet, faulty) ->
      let sim = Config.default |> Config.with_fleet fleet in
      let faults = if faulty then Gen.fault_spec else Fault.none in
      let setup = Experiment.make_setup ~sim ~faults () in
      let logged =
        meter_run_all ~setup ~fleet ~resolution:0.21
          (fun () -> Trace.Stream.of_trace trace)
      in
      List.for_all
        (fun (_, (r : Result.t), m) ->
          close (Meter.integral m).Timeline.total r.Result.energy)
        logged)

(* --- strictly observational --- *)

let test_observer_effect () =
  let trace = Gen.sample_trace () in
  let source () = Trace.Stream.of_trace trace in
  let bare = Experiment.replay_all source in
  let metered =
    meter_run_all ~fleet:[||] source |> List.map (fun (s, r, _) -> (s, r))
  in
  Alcotest.(check bool)
    "results byte-identical with the meter on" true
    (Marshal.to_string bare [] = Marshal.to_string metered [])

let test_live_equals_offline () =
  (* A meter attached during the replay and Meter.of_timeline over the
     frozen log must produce identical samples (the engine stamps fleet
     labels at end of run; of_timeline resolves them from the log). *)
  let fleet = [| Specs.ultrastar_36z15; Specs.flash |] in
  let sim = Config.default |> Config.with_fleet fleet in
  let setup = Experiment.make_setup ~sim () in
  let trace = Gen.busy_trace ~n:120 ~ndisks:4 () in
  let sink = Timeline.sink () in
  let live = Meter.create ~resolution:0.1 ~specs ~fleet () in
  Meter.attach live sink;
  let _ =
    Experiment.replay_all ~setup
      ~timeline:(fun s -> if s = Scheme.Cmdrpm then Some sink else None)
      ~schemes:[ Scheme.Cmdrpm ]
      (fun () -> Trace.Stream.of_trace trace)
  in
  Meter.finish live;
  let offline = Meter.of_timeline ~resolution:0.1 (Timeline.contents sink) in
  Alcotest.(check bool)
    "live samples = offline samples (bit-exact)" true
    (Meter.samples live = Meter.samples offline);
  Alcotest.(check bool)
    "live integral = offline integral" true
    (Meter.integral live = Meter.integral offline)

(* --- wire form --- *)

let roundtrip_section sec =
  let path = Filename.temp_file "dpm_meter" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Meter.write_jsonl sec oc;
      Meter.write_jsonl sec oc;
      close_out oc;
      let ic = open_in path in
      match
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Meter.read_jsonl ic)
      with
      | Ok sections -> sections
      | Error m -> Alcotest.fail m)

let test_jsonl_roundtrip () =
  let fleet = [| Specs.ultrastar_36z15; Specs.flash |] in
  let sim = Config.default |> Config.with_fleet fleet in
  let setup = Experiment.make_setup ~sim ~faults:Gen.fault_spec () in
  let trace = Gen.busy_trace ~n:150 ~ndisks:4 () in
  let logged =
    meter_run_all ~setup ~fleet ~schemes:[ Scheme.Drpm ]
      (fun () -> Trace.Stream.of_trace trace)
  in
  let _, _, m = List.hd logged in
  let sec = Meter.to_section ~scheme:"DRPM" ~program:"fault-t" m in
  Alcotest.(check bool) "section has samples" true (sec.Meter.m_samples <> []);
  match roundtrip_section sec with
  | [ a; b ] ->
      Alcotest.(check bool) "two identical sections round-trip bit-exactly"
        true
        (a = sec && b = sec)
  | l -> Alcotest.failf "expected 2 sections, got %d" (List.length l)

let test_csv_shape () =
  let m = Meter.create ~resolution:0.5 ~specs () in
  feed_all m
    [
      Timeline.Span { disk = 0; state = Timeline.Ready top; t0 = 0.0; t1 = 1.0 };
      Timeline.Sim_end 1.0;
    ];
  let sec = Meter.to_section ~scheme:"Base" ~program:"p" m in
  let path = Filename.temp_file "dpm_meter" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Meter.write_csv sec oc;
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      match List.rev !lines with
      | header :: rows ->
          Alcotest.(check string)
            "csv header" "scheme,program,disk,index,t0,t1,watts" header;
          Alcotest.(check int) "one row per sample" 2 (List.length rows);
          Alcotest.(check bool)
            "rows carry the labels" true
            (List.for_all
               (fun r -> String.length r > 7 && String.sub r 0 7 = "Base,p,")
               rows)
      | [] -> Alcotest.fail "empty csv")

let test_summary_renders () =
  let fleet = [| Specs.ultrastar_36z15; Specs.flash |] in
  let trace = Gen.busy_trace ~n:60 ~ndisks:2 () in
  let sim = Config.default |> Config.with_fleet fleet in
  let setup = Experiment.make_setup ~sim () in
  let logged =
    meter_run_all ~setup ~fleet ~schemes:[ Scheme.Base ]
      (fun () -> Trace.Stream.of_trace trace)
  in
  let _, _, m = List.hd logged in
  let s = Meter.summary m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("summary mentions " ^ needle) true
        (let n = String.length needle in
         let rec find i =
           i + n <= String.length s
           && (String.sub s i n = needle || find (i + 1))
         in
         find 0))
    [ "power meter"; "disk 0"; "ultrastar_36z15"; "flash"; "fleet: peak" ]

(* --- the Ring substrate --- *)

let test_ring_growth () =
  let r = Ring.create () in
  for i = 0 to 99 do
    Ring.push r i
  done;
  Alcotest.(check int) "length" 100 (Ring.length r);
  Alcotest.(check int) "pushed" 100 (Ring.pushed r);
  Alcotest.(check int) "dropped" 0 (Ring.dropped r);
  Alcotest.(check (list int)) "order preserved" (List.init 100 Fun.id)
    (Ring.to_list r);
  Alcotest.(check int) "get oldest" 0 (Ring.get r 0);
  Alcotest.(check int) "get newest" 99 (Ring.get r 99)

let test_ring_bounded () =
  let r = Ring.create ~capacity:8 () in
  for i = 0 to 19 do
    Ring.push r i
  done;
  Alcotest.(check int) "bounded length" 8 (Ring.length r);
  Alcotest.(check int) "dropped = overflow" 12 (Ring.dropped r);
  Alcotest.(check (list int)) "newest 8 retained, oldest first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (Ring.to_list r);
  Ring.clear r;
  Alcotest.(check int) "clear empties" 0 (Ring.length r);
  Alcotest.(check int) "clear resets counters" 0 (Ring.pushed r);
  Alcotest.(check bool) "capacity survives clear" true
    (Ring.capacity r = Some 8)

let test_ring_invalid () =
  Alcotest.check_raises "capacity < 1 rejected"
    (Invalid_argument "Ring.create: capacity < 1") (fun () ->
      ignore (Ring.create ~capacity:0 ()))

(* --- the Histo wire form the aggregator merges --- *)

let qcheck_histo_roundtrip =
  QCheck2.Test.make ~count:60 ~name:"histo: to_json/of_json round-trips"
    QCheck2.Gen.(list_size (int_range 0 200) (float_bound_inclusive 50.0))
    (fun xs ->
      let h = Histo.create () in
      List.iter (Histo.add h) xs;
      match Histo.of_json (Histo.to_json h) with
      | Error e -> QCheck2.Test.fail_report e
      | Ok h' ->
          Histo.count h' = Histo.count h
          && Histo.buckets h' = Histo.buckets h
          && Histo.min_value h' = Histo.min_value h
          && Histo.max_value h' = Histo.max_value h
          && Histo.quantile h' 99.0 = Histo.quantile h 99.0
          && Histo.sum h' = Histo.sum h)

let qcheck_histo_merge_of_json =
  QCheck2.Test.make ~count:40
    ~name:"histo: serialized histograms merge exactly"
    QCheck2.Gen.(
      tup2
        (list_size (int_range 0 100) (float_bound_inclusive 20.0))
        (list_size (int_range 0 100) (float_bound_inclusive 2000.0)))
    (fun (xs, ys) ->
      let ha = Histo.create () and hb = Histo.create () in
      List.iter (Histo.add ha) xs;
      List.iter (Histo.add hb) ys;
      let direct = Histo.merge ha hb in
      match
        ( Histo.of_json (Histo.to_json ha),
          Histo.of_json (Histo.to_json hb) )
      with
      | Ok a, Ok b ->
          let via_json = Histo.merge a b in
          Histo.buckets via_json = Histo.buckets direct
          && Histo.count via_json = Histo.count direct
          && Histo.quantile via_json 95.0 = Histo.quantile direct 95.0
      | _ -> false)

(* --- fleet aggregation (Dpm_core.Aggregate) --- *)

let test_aggregate () =
  let module Aggregate = Dpm_core.Aggregate in
  let module Json = Dpm_util.Json in
  let dir = Filename.temp_file "dpm_agg" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let cleanup () =
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:cleanup (fun () ->
      (* One dpm-report/1 document... *)
      let report =
        match
          Dpm_core.Report.of_spec
            (Dpm_core.Run.spec
               ~schemes:[ Scheme.Base; Scheme.Cmdrpm ]
               (Dpm_core.Run.Benchmark "galgel"))
        with
        | Ok doc -> doc
        | Error e ->
            Alcotest.failf "report failed: %s" (Dpm_core.Run.error_message e)
      in
      let write path s =
        let oc = open_out (Filename.concat dir path) in
        output_string oc s;
        close_out oc
      in
      write "report.json" (Json.to_string report);
      (* ...one dpm-meter/1 file with a section per scheme... *)
      let fleet = [| Specs.ultrastar_36z15; Specs.flash |] in
      let sim = Config.default |> Config.with_fleet fleet in
      let setup = Experiment.make_setup ~sim () in
      let trace = Gen.busy_trace ~n:100 ~ndisks:4 () in
      let metered =
        meter_run_all ~setup ~fleet
          ~schemes:[ Scheme.Base; Scheme.Cmdrpm ]
          (fun () -> Trace.Stream.of_trace trace)
      in
      let oc = open_out (Filename.concat dir "fleet.meter.jsonl") in
      List.iter
        (fun (s, _, m) ->
          Meter.write_jsonl
            (Meter.to_section ~scheme:(Scheme.name s) ~program:"busy" m)
            oc)
        metered;
      close_out oc;
      (* ...and a decoy the classifier must skip, not die on. *)
      write "decoy.json" "{\"schema\":\"dpm-spec/1\"}";
      (* A copy of the report whose second scheme lost its energies is
         skipped whole, naming the field, and adds nothing. *)
      let corrupt =
        let oops (k, v) =
          if k = "energy_j" || k = "energy_norm" then (k, Json.Str "oops")
          else (k, v)
        in
        let row i = function
          | Json.Obj fields when i = 1 -> Json.Obj (List.map oops fields)
          | r -> r
        in
        match report with
        | Json.Obj fields ->
            Json.Obj
              (List.map
                 (function
                   | "schemes", Json.Arr rows ->
                       ("schemes", Json.Arr (List.mapi row rows))
                   | kv -> kv)
                 fields)
        | j -> j
      in
      write "report.corrupt.json" (Json.to_string corrupt);
      let agg =
        match Aggregate.of_paths [ dir ] with
        | Ok a -> a
        | Error m -> Alcotest.fail m
      in
      Alcotest.(check (list string))
        "classification (sorted by name)"
        [
          "skipped: schema dpm-spec/1";
          "meter";
          "skipped: schemes[1].energy_j: expected a number";
          "report";
        ]
        (List.map snd (Aggregate.sources agg));
      let doc = Aggregate.to_json agg in
      (match Aggregate.validate doc with
      | Ok () -> ()
      | Error es -> Alcotest.fail (String.concat "; " es));
      let num section field =
        Option.get
          (Option.bind
             (Option.bind (Json.member section doc) (Json.member field))
             Json.to_float)
      in
      (* The fleet energy total is the sum of the meter integrals —
         aggregation re-derives energy from samples, so this pins the
         wire form's precision end-to-end. *)
      let expect =
        List.fold_left
          (fun a (_, _, m) -> a +. (Meter.integral m).Timeline.total)
          0.0 metered
      in
      Alcotest.(check bool)
        "fleet energy = sum of meter integrals" true
        (close (num "meters" "energy_j") expect);
      Alcotest.(check bool)
        "fleet peak positive" true
        (num "meters" "peak_fleet_w" > 0.0);
      (* With a single report file, the aggregate's per-scheme energy is
         that report's energy verbatim. *)
      let report_energy name =
        let rows =
          Option.get
            (Option.bind (Json.member "schemes" report) Json.to_list)
        in
        let row =
          List.find
            (fun r ->
              Option.bind (Json.member "scheme" r) Json.to_str = Some name)
            rows
        in
        Option.get (Option.bind (Json.member "energy_j" row) Json.to_float)
      in
      let agg_energy name =
        let rows =
          Option.get
            (Option.bind
               (Option.bind (Json.member "reports" doc)
                  (Json.member "schemes"))
               Json.to_list)
        in
        let row =
          List.find
            (fun r ->
              Option.bind (Json.member "scheme" r) Json.to_str = Some name)
            rows
        in
        Option.get (Option.bind (Json.member "energy_j" row) Json.to_float)
      in
      List.iter
        (fun s ->
          let n = Scheme.name s in
          Alcotest.(check (float 1e-9))
            (n ^ " energy passes through") (report_energy n) (agg_energy n))
        [ Scheme.Base; Scheme.Cmdrpm ];
      (* Both registry models got lanes attributed (4 disks round-robin
         over a 2-model fleet). *)
      let models =
        Option.get
          (Option.bind
             (Option.bind (Json.member "meters" doc) (Json.member "models"))
             Json.to_list)
      in
      Alcotest.(check int) "two models attributed" 2 (List.length models);
      let renders = Aggregate.render agg in
      Alcotest.(check bool)
        "render mentions the fleet line" true
        (let needle = "fleet:" in
         let rec find i =
           i + String.length needle <= String.length renders
           && (String.sub renders i (String.length needle) = needle
              || find (i + 1))
         in
         find 0))

(* dpm-report/1 has one reader, [Report.decode]: a document it refuses
   fails report-check naming the field, and aggregate skips the file
   with the same message.  Each mutation changes one field of a real
   report. *)
let galgel_report =
  lazy
    (match
       Dpm_core.Report.of_spec
         (Dpm_core.Run.spec
            ~schemes:[ Scheme.Base; Scheme.Cmdrpm ]
            (Dpm_core.Run.Benchmark "galgel"))
     with
    | Ok doc -> doc
    | Error e ->
        Alcotest.failf "report failed: %s" (Dpm_core.Run.error_message e))

(* [field k f j]: object [j] with field [k] replaced by [f v], or
   dropped when [f v] is [None]; [nth i f a]: array [a] with element
   [i] replaced by [f]. *)
let field k f = function
  | Dpm_util.Json.Obj fields ->
      Dpm_util.Json.Obj
        (List.filter_map
           (fun (k', v) ->
             if k' = k then Option.map (fun v -> (k', v)) (f v)
             else Some (k', v))
           fields)
  | j -> j

let nth i f = function
  | Dpm_util.Json.Arr l ->
      Dpm_util.Json.Arr (List.mapi (fun j v -> if j = i then f v else v) l)
  | j -> j

let report_mutations =
  let module Json = Dpm_util.Json in
  let in_array k i f = field k (fun a -> Some (nth i f a)) in
  let set v _ = Some v in
  [
    ( "requests-less.json",
      "schemes[1].requests:",
      in_array "schemes" 1 (field "requests" (fun _ -> None)) );
    ( "scheme-number.json",
      "schemes[0].scheme:",
      in_array "schemes" 0 (field "scheme" (set (Json.Int 7))) );
    ( "bad-buckets.json",
      "histograms[0].buckets:",
      in_array "histograms" 0
        (field "buckets"
           (fun b ->
             Some
               (field "buckets"
                  (set (Json.Arr [ Json.Arr [ Json.Int (-1) ] ]))
                  b))) );
    ( "remaps-string.json",
      "schemes[1].faults.remaps:",
      in_array "schemes" 1
        (field "faults" (fun f -> Some (field "remaps" (set (Json.Str "0")) f)))
    );
  ]

let with_dir f =
  let dir = Filename.temp_file "dpm_agg" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let write_doc dir name doc =
  Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
      output_string oc (Dpm_util.Json.to_string doc))

let test_report_one_reader () =
  let module Aggregate = Dpm_core.Aggregate in
  let report = Lazy.force galgel_report in
  Alcotest.(check bool) "the unmutated report validates" true
    (Dpm_core.Report.validate report = Ok ());
  with_dir (fun dir ->
      let expected =
        List.map
          (fun (name, path, mutate) ->
            let doc = mutate report in
            write_doc dir name doc;
            match Dpm_core.Report.validate doc with
            | Ok () -> Alcotest.failf "%s: report-check accepted it" name
            | Error [ m ] ->
                Alcotest.(check string) (name ^ ": names its path") path
                  (String.sub m 0 (min (String.length m) (String.length path)));
                (Filename.concat dir name, "skipped: " ^ m)
            | Error ms -> Alcotest.failf "%s: %s" name (String.concat "; " ms))
          report_mutations
      in
      match Aggregate.of_paths [ dir ] with
      | Error m -> Alcotest.fail m
      | Ok agg ->
          Alcotest.(check (list (pair string string)))
            "aggregate skips each with report-check's message"
            (List.sort compare expected)
            (Aggregate.sources agg))

(* With nothing aggregated, the dashboard's errors say why each input
   was skipped before saying that nothing was aggregated. *)
let test_aggregate_all_skipped () =
  let module Aggregate = Dpm_core.Aggregate in
  let _, _, drop_requests = List.hd report_mutations in
  with_dir (fun dir ->
      write_doc dir "r.json" (drop_requests (Lazy.force galgel_report));
      match Aggregate.of_paths [ dir ] with
      | Error m -> Alcotest.fail m
      | Ok agg ->
          Alcotest.(check (result unit (list string)))
            "every skip reason, then the verdict"
            (Error
               [
                 Filename.concat dir "r.json"
                 ^ ": skipped: schemes[1].requests: missing";
                 "no dpm-report/1 or dpm-meter/1 inputs were aggregated";
               ])
            (Aggregate.validate (Aggregate.to_json agg)))

let suite =
  [
    ( "meter",
      [
        Alcotest.test_case "window semantics" `Quick test_window_semantics;
        Alcotest.test_case "truncated last window" `Quick
          test_truncated_last_window;
        Alcotest.test_case "boundary split + zero-width events" `Quick
          test_boundary_split_and_zero_width;
        Alcotest.test_case "windows close live" `Quick test_live_closing;
        Alcotest.test_case "capacity bound keeps integral exact" `Quick
          test_capacity_bound;
        Alcotest.test_case "acceptance: faulty heterogeneous fleet" `Quick
          test_faulty_heterogeneous_acceptance;
        QCheck_alcotest.to_alcotest qcheck_integral;
        Alcotest.test_case "strictly observational" `Quick
          test_observer_effect;
        Alcotest.test_case "live = offline metering" `Quick
          test_live_equals_offline;
        Alcotest.test_case "dpm-meter/1 round-trip" `Quick
          test_jsonl_roundtrip;
        Alcotest.test_case "csv shape" `Quick test_csv_shape;
        Alcotest.test_case "summary renders" `Quick test_summary_renders;
      ] );
    ( "ring",
      [
        Alcotest.test_case "growth preserves order" `Quick test_ring_growth;
        Alcotest.test_case "bounded eviction" `Quick test_ring_bounded;
        Alcotest.test_case "invalid capacity" `Quick test_ring_invalid;
      ] );
    ( "histo-json",
      [
        QCheck_alcotest.to_alcotest qcheck_histo_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_histo_merge_of_json;
      ] );
    ( "aggregate",
      [
        Alcotest.test_case "fleet dashboard over report + meter files" `Quick
          test_aggregate;
        Alcotest.test_case "one dpm-report/1 reader" `Quick
          test_report_one_reader;
        Alcotest.test_case "all inputs skipped: reasons listed" `Quick
          test_aggregate_all_skipped;
      ] );
  ]
