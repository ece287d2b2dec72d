(* The observability layer: histograms whose quantiles are exact under
   any merge order (the parallel-grid determinism property), span trees
   that export as balanced Chrome traces, a JSON printer/parser that
   round-trips, a leveled logger, and — the governing invariant —
   telemetry that never perturbs simulation results. *)

module Histo = Dpm_util.Histo
module Telemetry = Dpm_util.Telemetry
module Json = Dpm_util.Json
module Log = Dpm_util.Log
module Stats = Dpm_util.Stats
module Pool = Dpm_util.Pool
module Scheme = Dpm_core.Scheme
module Experiment = Dpm_core.Experiment

let histo_of xs =
  let h = Histo.create () in
  List.iter (Histo.add h) xs;
  h

let same_histo a b =
  Histo.count a = Histo.count b
  && Histo.buckets a = Histo.buckets b
  && Histo.min_value a = Histo.min_value b
  && Histo.max_value a = Histo.max_value b
  && List.for_all
       (fun p -> Histo.quantile a p = Histo.quantile b p)
       [ 0.0; 25.0; 50.0; 90.0; 99.0; 100.0 ]

(* Dyadic floats: exactly representable, never NaN/inf, varied scale. *)
let gen_pos_float =
  QCheck2.Gen.(
    map
      (fun (m, e) -> Float.ldexp (float_of_int m) e)
      (pair (int_range 1 1_000_000) (int_range (-20) 20)))

let gen_floats = QCheck2.Gen.(list_size (int_range 0 200) gen_pos_float)

(* (a) Merging is exactly commutative: per-bucket integer counts. *)
let qcheck_merge_commutative =
  QCheck2.Test.make ~count:200 ~name:"histo: merge commutative"
    QCheck2.Gen.(pair gen_floats gen_floats)
    (fun (xs, ys) ->
      let a = histo_of xs and b = histo_of ys in
      same_histo (Histo.merge a b) (Histo.merge b a))

(* (b) ... and associative, so any parallel merge tree gives the same
   quantiles — the domain-count independence the engine relies on. *)
let qcheck_merge_associative =
  QCheck2.Test.make ~count:200 ~name:"histo: merge associative"
    QCheck2.Gen.(triple gen_floats gen_floats gen_floats)
    (fun (xs, ys, zs) ->
      let a = histo_of xs and b = histo_of ys and c = histo_of zs in
      same_histo
        (Histo.merge (Histo.merge a b) c)
        (Histo.merge a (Histo.merge b c)))

(* (c) Quantiles are nearest-rank order statistics within a factor of
   gamma (and never below the true value). *)
let qcheck_quantile_bounds =
  QCheck2.Test.make ~count:300 ~name:"histo: quantile within gamma of exact"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 200) gen_pos_float)
        (map float_of_int (int_range 0 100)))
    (fun (xs, p) ->
      let h = histo_of xs in
      let q = Histo.quantile h p in
      let exact = Stats.percentile p xs in
      q >= exact *. (1.0 -. 1e-9)
      && q <= exact *. Histo.gamma *. (1.0 +. 1e-9))

let test_histo_edges () =
  let h = Histo.create () in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Histo.quantile h 50.0);
  Histo.add h 0.0;
  Histo.add h (-3.0);
  Histo.add h 2.0;
  Alcotest.(check int) "zeros count" 3 (Histo.count h);
  Alcotest.(check (float 0.0)) "p50 hits the zero bucket" 0.0
    (Histo.quantile h 50.0);
  Alcotest.(check (float 0.0)) "p100 is the exact max" 2.0
    (Histo.quantile h 100.0);
  Histo.add h Float.nan;
  Alcotest.(check int) "NaN ignored" 3 (Histo.count h)

(* --- span trees --- *)

let rec build_tree t depth name =
  Telemetry.span t name (fun () ->
      if depth > 0 then begin
        build_tree t (depth - 1) (name ^ "l");
        build_tree t (depth - 1) (name ^ "r")
      end)

let test_span_tree () =
  let t = Telemetry.create () in
  Telemetry.set_tracing t true;
  build_tree t 3 "s";
  let spans = Telemetry.spans t in
  Alcotest.(check int) "2^4 - 1 spans" 15 (List.length spans);
  let by_id =
    List.fold_left
      (fun acc (s : Telemetry.span) -> (s.Telemetry.id, s) :: acc)
      [] spans
  in
  let roots = ref 0 in
  List.iter
    (fun (s : Telemetry.span) ->
      if s.Telemetry.parent < 0 then incr roots
      else
        match List.assoc_opt s.Telemetry.parent by_id with
        | None -> Alcotest.fail "dangling parent id"
        | Some p ->
            Alcotest.(check bool) "parent opened first" true
              (p.Telemetry.t0 <= s.Telemetry.t0);
            Alcotest.(check bool) "parent closed last" true
              (p.Telemetry.t1 >= s.Telemetry.t1);
            Alcotest.(check int) "same track" p.Telemetry.track
              s.Telemetry.track;
            Alcotest.(check bool) "children named after parent" true
              (String.length s.Telemetry.name > String.length p.Telemetry.name))
    spans;
  Alcotest.(check int) "single root" 1 !roots

let test_span_exception_closes () =
  let t = Telemetry.create () in
  Telemetry.set_tracing t true;
  (try
     Telemetry.span t "outer" (fun () ->
         Telemetry.span t "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  match Telemetry.spans t with
  | [ outer; inner ] ->
      Alcotest.(check string) "outer first by id" "outer" outer.Telemetry.name;
      Alcotest.(check int) "inner nested under outer" outer.Telemetry.id
        inner.Telemetry.parent
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

(* Spans recorded from pool workers land on their own tracks and the
   export still balances. *)
let test_spans_across_domains () =
  let t = Telemetry.global in
  Telemetry.reset t;
  Telemetry.set_tracing t true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_tracing t false;
      Telemetry.reset t)
    (fun () ->
      let results =
        Pool.map ~domains:4
          (fun i ->
            Telemetry.span t "job" (fun () -> i * i))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      Alcotest.(check (list int)) "results unchanged"
        [ 1; 4; 9; 16; 25; 36; 49; 64 ]
        results;
      let spans = Telemetry.spans t in
      (* 8 explicit jobs + 8 pool.task wrappers *)
      Alcotest.(check int) "all spans recorded" 16 (List.length spans);
      let doc = Telemetry.chrome_json t in
      match Telemetry.validate_chrome doc with
      | Ok () -> ()
      | Error msgs -> Alcotest.fail (String.concat "; " msgs))

let test_chrome_round_trip () =
  let t = Telemetry.create () in
  Telemetry.set_tracing t true;
  build_tree t 2 "r";
  let doc = Telemetry.chrome_json t in
  (match Telemetry.validate_chrome doc with
  | Ok () -> ()
  | Error msgs -> Alcotest.fail (String.concat "; " msgs));
  match Json.parse_string (Json.to_string ~indent:1 doc) with
  | Error m -> Alcotest.fail m
  | Ok reparsed ->
      Alcotest.(check bool) "trace JSON round-trips structurally" true
        (reparsed = doc);
      (match Telemetry.validate_chrome reparsed with
      | Ok () -> ()
      | Error msgs -> Alcotest.fail (String.concat "; " msgs))

let test_validate_chrome_rejects () =
  let ev ph name =
    Json.Obj
      [
        ("ph", Json.Str ph);
        ("name", Json.Str name);
        ("ts", Json.Float 1.0);
        ("pid", Json.Int 1);
        ("tid", Json.Int 0);
      ]
  in
  let doc events = Json.Obj [ ("traceEvents", Json.Arr events) ] in
  let is_err = function Error _ -> true | Ok () -> false in
  Alcotest.(check bool) "unbalanced B rejected" true
    (is_err (Telemetry.validate_chrome (doc [ ev "B" "a" ])));
  Alcotest.(check bool) "E without B rejected" true
    (is_err (Telemetry.validate_chrome (doc [ ev "E" "a" ])));
  Alcotest.(check bool) "mismatched names rejected" true
    (is_err (Telemetry.validate_chrome (doc [ ev "B" "a"; ev "E" "b" ])));
  Alcotest.(check bool) "empty trace rejected" true
    (is_err (Telemetry.validate_chrome (doc [])));
  Alcotest.(check bool) "balanced pair accepted" true
    (Telemetry.validate_chrome (doc [ ev "B" "a"; ev "E" "a" ]) = Ok ())

(* --- JSON round-trip --- *)

let gen_json =
  let open QCheck2.Gen in
  let gen_str = string_size ~gen:printable (int_range 0 12) in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) gen_pos_float;
        map (fun f -> Json.Float (-.f)) gen_pos_float;
        map (fun s -> Json.Str s) gen_str;
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        oneof
          [
            leaf;
            map (fun xs -> Json.Arr xs) (list_size (int_range 0 4) (self (depth - 1)));
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_range 0 4) (pair gen_str (self (depth - 1))));
          ])
    3

let qcheck_json_round_trip =
  QCheck2.Test.make ~count:300 ~name:"json: print/parse round-trip" gen_json
    (fun v ->
      match Json.parse_string (Json.to_string v) with
      | Ok v' -> v' = v
      | Error _ -> false)

let qcheck_json_round_trip_indented =
  QCheck2.Test.make ~count:100 ~name:"json: indented round-trip" gen_json
    (fun v ->
      match Json.parse_string (Json.to_string ~indent:2 v) with
      | Ok v' -> v' = v
      | Error _ -> false)

let test_json_escapes () =
  let v = Json.Str "a\"b\\c\nd\te\r\x01" in
  (match Json.parse_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "escapes round-trip" true (v = v')
  | Error m -> Alcotest.fail m);
  (match Json.parse_string "{\"a\": [1, 2.5, true, null, \"x\"]} " with
  | Ok
      (Json.Obj
        [ ("a", Json.Arr [ Json.Int 1; Json.Float 2.5; Json.Bool true; Json.Null; Json.Str "x" ]) ])
    -> ()
  | Ok _ -> Alcotest.fail "unexpected parse"
  | Error m -> Alcotest.fail m);
  match Json.parse_string "{} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

let test_schema_outline () =
  let doc =
    Json.Obj
      [
        ("b", Json.Int 1);
        ("a", Json.Str "x");
        ( "rows",
          Json.Arr
            [
              Json.Obj [ ("v", Json.Float 1.5) ];
              Json.Obj [ ("v", Json.Int 2); ("extra", Json.Bool true) ];
            ] );
      ]
  in
  Alcotest.(check (list string))
    "sorted, merged array elements"
    [
      ".a:s"; ".b:n"; ".rows:a"; ".rows[].extra:b"; ".rows[].v:n";
      ".rows[]:o"; ":o";
    ]
    (Json.schema_outline doc)

(* --- logger --- *)

let test_logger () =
  let captured = ref [] in
  Log.set_writer (Some (fun line -> captured := line :: !captured));
  let saved = Log.level () in
  Fun.protect
    ~finally:(fun () ->
      Log.set_writer None;
      Log.set_level saved)
    (fun () ->
      Log.set_level Log.Warn;
      Alcotest.(check bool) "warn passes" true (Log.would_log Log.Warn);
      Alcotest.(check bool) "info filtered" false (Log.would_log Log.Info);
      Log.debug ~scope:"t" "hidden";
      Log.info ~scope:"t" "hidden";
      Log.warn ~scope:"engine" ~kv:[ ("scheme", "DRPM"); ("note", "a b") ]
        "slow replay";
      Log.error ~scope:"t" "boom";
      Alcotest.(check (list string))
        "only warn+error, formatted"
        [
          "[dpm][warn] engine: slow replay scheme=DRPM note=\"a b\"\n";
          "[dpm][error] t: boom\n";
        ]
        (List.rev !captured))

let test_level_of_string () =
  List.iter
    (fun l ->
      match Log.level_of_string (Log.level_name l) with
      | Ok l' -> Alcotest.(check bool) "level name round-trips" true (l = l')
      | Error m -> Alcotest.fail m)
    Log.all_levels;
  match Log.level_of_string "chatty" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad level accepted"

(* --- metrics determinism (satellite: name-sorted report rows) --- *)

let test_metrics_sorted () =
  let t = Telemetry.create () in
  Telemetry.set_enabled t true;
  List.iter (fun name -> Telemetry.span t name ignore) [ "zeta"; "alpha"; "mid" ];
  Telemetry.add t "z.counter" 1;
  Telemetry.add t "a.counter" 1;
  Alcotest.(check (list string))
    "spans sorted by name"
    [ "alpha"; "mid"; "zeta" ]
    (List.map (fun (n, _, _) -> n) (Telemetry.stages t));
  Alcotest.(check (list string))
    "counters sorted by name"
    [ "a.counter"; "z.counter" ]
    (List.map fst (Telemetry.counters t))

(* --- the governing invariant: telemetry never changes results --- *)

let run_schemes = [ Scheme.Base; Scheme.Tpm; Scheme.Idrpm; Scheme.Cmdrpm ]

let results_for () =
  let spec = Dpm_workloads.Suite.find "wupwise" in
  let p, plan = Experiment.workload spec in
  let setup = Experiment.make_setup ~noise:spec.Dpm_workloads.Suite.noise () in
  Experiment.run_all ~setup ~schemes:run_schemes p plan

let test_observer_effect () =
  let t = Telemetry.global in
  let off = results_for () in
  Telemetry.reset t;
  Telemetry.set_tracing t true;
  Telemetry.set_histograms t true;
  let was_enabled = Telemetry.enabled t in
  Telemetry.set_enabled t true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_tracing t false;
      Telemetry.set_histograms t false;
      Telemetry.set_enabled t was_enabled;
      Telemetry.reset t)
    (fun () ->
      let on = results_for () in
      Alcotest.(check bool)
        "results bit-identical with telemetry on (1 domain)" true (off = on);
      let pooled = Pool.map ~domains:4 (fun _ -> results_for ()) [ 0; 1; 2; 3 ] in
      Alcotest.(check bool)
        "results bit-identical from 4 concurrent domains" true
        (List.for_all (fun r -> r = off) pooled);
      Alcotest.(check bool) "spans were recorded" true
        (Telemetry.spans t <> []);
      let histos = Telemetry.histograms t in
      Alcotest.(check bool) "latency histogram registered" true
        (List.mem_assoc "sim.service_latency_s" histos);
      Alcotest.(check bool) "queue-depth histogram registered" true
        (List.mem_assoc "sim.queue_depth" histos);
      (* 5 identical runs fed the same histograms: quantiles must come
         out the same as one run scaled — check count divisibility. *)
      let latency = List.assoc "sim.service_latency_s" histos in
      Alcotest.(check int) "latency count divides evenly" 0
        (Histo.count latency mod 5))

(* --- run reports --- *)

let test_report () =
  match
    Dpm_core.Report.of_spec
      (Dpm_core.Run.spec
         ~schemes:[ Scheme.Base; Scheme.Cmdrpm ]
         (Dpm_core.Run.Benchmark "wupwise"))
  with
  | Error e -> Alcotest.fail (Dpm_core.Run.error_message e)
  | Ok doc ->
      let report =
        match Dpm_core.Report.validate doc with
        | Ok report -> report
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
      in
      (match Json.parse_string (Json.to_string ~indent:1 doc) with
      | Ok doc' ->
          Alcotest.(check bool) "report JSON round-trips" true (doc = doc');
          Alcotest.(check (list string))
            "schema outline stable across print/parse"
            (Json.schema_outline doc)
            (Json.schema_outline doc')
      | Error m -> Alcotest.fail m);
      let md = Dpm_core.Report.markdown report in
      Alcotest.(check bool) "markdown names the benchmark" true
        (String.length md > 0
        &&
        let re = "wupwise" in
        let found = ref false in
        for i = 0 to String.length md - String.length re do
          if String.sub md i (String.length re) = re then found := true
        done;
        !found)

(* Report.of_spec switches the global collector's stage table and
   histograms on for its duration only, and its document carries what
   they recorded. *)
let test_report_collector () =
  let t = Telemetry.global in
  let flags () =
    (Telemetry.enabled t, Telemetry.tracing t, Telemetry.histograms_enabled t)
  in
  let enabled0, tracing0, histograms0 = flags () in
  let names doc field key =
    List.filter_map
      (fun row -> Option.bind (Json.member key row) Json.to_str)
      (Option.value ~default:[]
         (Option.bind (Json.member field doc) Json.to_list))
  in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled t enabled0;
      Telemetry.set_histograms t histograms0)
    (fun () ->
      List.iter
        (fun (enabled, histograms) ->
          Telemetry.set_enabled t enabled;
          Telemetry.set_histograms t histograms;
          match
            Dpm_core.Report.of_spec
              (Dpm_core.Run.spec ~schemes:[ Scheme.Base ]
                 (Dpm_core.Run.Benchmark "galgel"))
          with
          | Error e -> Alcotest.fail (Dpm_core.Run.error_message e)
          | Ok doc ->
              Alcotest.(check (triple bool bool bool))
                "collector flags restored"
                (enabled, tracing0, histograms)
                (flags ());
              Alcotest.(check bool) "stages carry sim.replay" true
                (List.mem "sim.replay" (names doc "stages" "stage"));
              Alcotest.(check bool) "counters carry sim.requests" true
                (List.mem "sim.requests" (names doc "counters" "counter"));
              Alcotest.(check bool) "histograms carry sim.service_latency_s"
                true
                (List.mem "sim.service_latency_s"
                   (names doc "histograms" "name")))
        [ (false, false); (true, false); (false, true) ])

(* Walks per job, as the [--metrics] stage table counts them: a suite
   job walks once to calibrate its untransformed program and once for
   its job program, whose log feeds the analysis and every trace; a
   trace-file job never walks. *)
let test_walks_per_job () =
  let module Run = Dpm_core.Run in
  let t = Telemetry.global in
  let enabled0 = Telemetry.enabled t in
  let path = Filename.temp_file "walks" ".trc" in
  (let p, plan = Experiment.workload (Dpm_workloads.Suite.find "galgel") in
   Dpm_trace.Trace.save (Dpm_trace.Generate.run p plan) path);
  let walks spec =
    Telemetry.reset t;
    Telemetry.set_enabled t true;
    (match Run.exec_all spec with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Run.error_message e));
    match
      List.find_opt (fun (n, _, _) -> n = "trace.walk") (Telemetry.stages t)
    with
    | Some (_, _, calls) -> calls
    | None -> 0
  in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled t enabled0;
      Telemetry.reset t;
      Sys.remove path)
    (fun () ->
      Alcotest.(check int) "seven-scheme TL+DL job" 2
        (walks
           (Run.spec ~version:Dpm_compiler.Pipeline.TL_DL
              (Run.Benchmark "galgel")));
      Alcotest.(check int) "Base-only job" 2
        (walks (Run.spec ~schemes:[ Scheme.Base ] (Run.Benchmark "galgel")));
      Alcotest.(check int) "trace-file job" 0
        (walks (Run.spec (Run.Trace_file path))))

let test_bench_snapshot () =
  let doc =
    Dpm_core.Report.bench_snapshot
      ~figures:[ ("fig3", 1.25); ("table2", 0.5) ]
      ()
  in
  (match Dpm_core.Report.validate_bench doc with
  | Ok () -> ()
  | Error msgs -> Alcotest.fail (String.concat "; " msgs));
  (* Malformed snapshots are rejected. *)
  match
    Dpm_core.Report.validate_bench
      (Json.Obj [ ("schema", Json.Str "dpm-bench/1"); ("figures", Json.Arr []) ])
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty figure list accepted"

let qt = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "telemetry",
      [
        qt qcheck_merge_commutative;
        qt qcheck_merge_associative;
        qt qcheck_quantile_bounds;
        Alcotest.test_case "histogram edge cases" `Quick test_histo_edges;
        Alcotest.test_case "span tree well-formed" `Quick test_span_tree;
        Alcotest.test_case "span closes on exception" `Quick
          test_span_exception_closes;
        Alcotest.test_case "spans across domains" `Quick
          test_spans_across_domains;
        Alcotest.test_case "chrome trace round-trip" `Quick
          test_chrome_round_trip;
        Alcotest.test_case "chrome validator rejects bad traces" `Quick
          test_validate_chrome_rejects;
        qt qcheck_json_round_trip;
        qt qcheck_json_round_trip_indented;
        Alcotest.test_case "json escapes and errors" `Quick test_json_escapes;
        Alcotest.test_case "schema outline" `Quick test_schema_outline;
        Alcotest.test_case "logger levels and formatting" `Quick test_logger;
        Alcotest.test_case "log level parsing" `Quick test_level_of_string;
        Alcotest.test_case "metrics rows name-sorted" `Quick
          test_metrics_sorted;
        Alcotest.test_case "telemetry is observation-only" `Slow
          test_observer_effect;
        Alcotest.test_case "run report validates and round-trips" `Slow
          test_report;
        Alcotest.test_case "report restores collector flags" `Quick
          test_report_collector;
        Alcotest.test_case "bench snapshot validates" `Quick
          test_bench_snapshot;
        Alcotest.test_case "walks per job" `Quick test_walks_per_job;
      ] );
  ]
