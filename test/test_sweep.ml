(* The auto-tuning sweep subsystem and its two APIs: the dpm-spec/1
   serializable run specs (round-trip exactly, reject garbage) and the
   Sweep grid driver (deterministic expansion, domain-count-independent
   results, best-configuration tables whose persisted winning spec
   replays bit-identically).  Plus the Adaptive policy's contract: the
   hill-climbed thresholds stay inside their clamp and the controller
   never loses energy against Base on any suite workload while staying
   above the oracle bound. *)

module Config = Dpm_sim.Config
module Policy = Dpm_sim.Policy
module Engine = Dpm_sim.Engine
module Res = Dpm_sim.Result
module Run = Dpm_core.Run
module Scheme = Dpm_core.Scheme
module Sweep = Dpm_core.Sweep
module Experiment = Dpm_core.Experiment
module Json = Dpm_util.Json

let break_even = Dpm_disk.Power.tpm_break_even Config.default.Config.specs

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- Grid expansion --- *)

let test_expand () =
  Alcotest.(check int) "empty axes: one empty point" 1
    (List.length (Sweep.expand []));
  let axes =
    [
      { Sweep.name = "tpm-threshold"; values = [ 4.0; 8.0; 15.2 ] };
      { Sweep.name = "drpm-lower"; values = [ 0.02; 0.08 ] };
      { Sweep.name = "drpm-window"; values = [ 10.0; 30.0 ] };
    ]
  in
  let points = Sweep.expand axes in
  Alcotest.(check int) "3 x 2 x 2 = 12 points" 12 (List.length points);
  (* Axis order is preserved within a point; later axes vary fastest. *)
  Alcotest.(check bool) "first point = all first values" true
    (List.hd points
    = [ ("tpm-threshold", 4.0); ("drpm-lower", 0.02); ("drpm-window", 10.0) ]);
  Alcotest.(check bool) "second point varies the last axis" true
    (List.nth points 1
    = [ ("tpm-threshold", 4.0); ("drpm-lower", 0.02); ("drpm-window", 30.0) ]);
  (* Expansion is a pure function: same axes, same order, every time. *)
  Alcotest.(check bool) "deterministic" true (points = Sweep.expand axes)

let test_axes_of_string () =
  (match Sweep.axes_of_string "tpm-threshold=4,8; drpm-window=10" with
  | Ok
      [
        { Sweep.name = "tpm-threshold"; values = [ 4.0; 8.0 ] };
        { Sweep.name = "drpm-window"; values = [ 10.0 ] };
      ] ->
      ()
  | Ok _ -> Alcotest.fail "parsed into the wrong axes"
  | Error m -> Alcotest.fail m);
  let is_error s =
    match Sweep.axes_of_string s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "unknown axis rejected" true (is_error "warp=1,2");
  Alcotest.(check bool) "empty values rejected" true
    (is_error "tpm-threshold=");
  Alcotest.(check bool) "bad number rejected" true
    (is_error "drpm-lower=0.02,zap");
  Alcotest.(check bool) "missing = rejected" true (is_error "tpm-threshold");
  Alcotest.(check bool) "non-integral integer axis rejected" true
    (is_error "drpm-window=10.5");
  match Sweep.axes_of_string "drpm-window=8.0" with
  | Ok [ { Sweep.name = "drpm-window"; values = [ 8.0 ] } ] -> ()
  | Ok _ -> Alcotest.fail "integral spelling misread"
  | Error m -> Alcotest.fail m

let test_apply () =
  let c =
    Sweep.apply Config.default
      [
        ("tpm-threshold", 5.0);
        ("drpm-floor-depth", 6.0);
        ("queue-depth", 8.0);
        ("pre-activation-lead", 0.25);
      ]
  in
  Alcotest.(check bool) "tpm_threshold set" true
    (c.Config.tpm_threshold = Some 5.0);
  Alcotest.(check int) "drpm_floor_depth set" 6 c.Config.drpm_floor_depth;
  Alcotest.(check int) "queue_depth set" 8 c.Config.queue_depth;
  Alcotest.(check (float 0.0)) "pre_activation_lead set" 0.25
    c.Config.pre_activation_lead;
  Alcotest.check_raises "unknown axis raises"
    (Invalid_argument "Sweep.apply: unknown axis warp") (fun () ->
      ignore (Sweep.apply Config.default [ ("warp", 1.0) ]))

(* A point that breaks a [Config] invariant is a typed error naming the
   point, returned before any cell runs -- not an exception out of the
   pool, and not a grid of NaN results. *)
let test_invalid_points_rejected () =
  List.iter
    (fun (label, axis, needle) ->
      match Sweep.run ~schemes:[ Scheme.Base ] ~axes:[ axis ] ~workloads:[ "swim" ] () with
      | Ok _ -> Alcotest.failf "%s: the sweep ran" label
      | Error (Run.Malformed_spec m) ->
          Alcotest.(check bool) (label ^ " names the point") true (contains m needle)
      | Error e -> Alcotest.failf "%s: %s" label (Run.error_message e))
    [
      ("queue depth 0", { Sweep.name = "queue-depth"; values = [ 0.0 ] }, "queue-depth=0");
      ( "drpm lower nan",
        { Sweep.name = "drpm-lower"; values = [ Float.nan ] },
        "drpm-lower=nan" );
    ]

(* A point is valid or not whatever order its axes are listed in: a
   lower DRPM tolerance above the default upper one runs when the
   point's own upper bound exceeds it, and both orders give the same
   cell. *)
let test_axis_order_irrelevant () =
  let cell axes =
    match
      Sweep.run ~schemes:[ Scheme.Base; Scheme.Drpm ] ~axes
        ~workloads:[ "galgel" ] ()
    with
    | Ok { Sweep.cells = [ c ]; _ } -> c.Sweep.results
    | Ok _ -> Alcotest.fail "expected one cell"
    | Error e -> Alcotest.fail (Run.error_message e)
  in
  let lower = { Sweep.name = "drpm-lower"; values = [ 0.2 ] }
  and upper = { Sweep.name = "drpm-upper"; values = [ 0.3 ] } in
  Alcotest.(check bool) "lower-first cell = upper-first cell" true
    (cell [ lower; upper ] = cell [ upper; lower ])

(* --- dpm-spec/1 round-trip --- *)

(* The spec JSON is a fixpoint of serialize/parse: comparing documents
   sidesteps the parser's legitimate Float->Int narrowing of whole
   floats while still proving the run is reproduced bit-for-bit.  The
   parsed spec must also describe the same setup and resolve the same
   schemes, so a field that both writer and reader drop cannot pass.  An
   empty scheme list is refused rather than widened to the seven. *)
let spec_json_fixpoint s =
  let fail e = Alcotest.fail (Run.error_message e) in
  match Run.to_json s with
  | Error e -> fail e
  | Ok j -> (
      match (Run.of_json j, Run.schemes_of s) with
      | Error (Run.Malformed_spec _), Ok [] -> true
      | Error e, _ -> fail e
      | Ok s', _ -> (
          Run.describe s' = Run.describe s
          && Run.schemes_of s' = Run.schemes_of s
          &&
          match Run.to_json s' with
          | Error e -> fail e
          | Ok j' -> String.equal (Json.to_string j) (Json.to_string j')))

let gen_setup =
  QCheck2.Gen.(
    map
      (fun (noise, seed, cache_blocks, version) ->
        Experiment.make_setup ~noise ~seed ~cache_blocks ~version ())
      (tup4 (float_bound_inclusive 0.5) nat (int_range 1 512)
         (oneofl Dpm_compiler.Pipeline.all_versions)))

let gen_spec =
  QCheck2.Gen.(
    map
      (fun ( (bench, mask, empty),
             (tpm, lower, window),
             (mode, core, stream),
             batch,
             setup ) ->
        let scheme_names =
          match
            List.filteri
              (fun i _ -> (mask lsr i) land 1 = 1)
              Scheme.extended_names
          with
          | _ when empty -> None
          | [] -> Some [ "Base" ]
          | picked -> Some picked
        in
        let sim =
          Config.make
            ?tpm_threshold:(if tpm > 0.0 then Some tpm else None)
            ~drpm_lower:lower ~drpm_window:window ()
        in
        Run.spec ~schemes:[] ?scheme_names ?setup ~sim
          ?mode:(if mode then Some `Closed else None)
          ?core:(if core then Some `Reference else None)
          ?stream:(if stream then Some true else None)
          ?batch:(if batch > 0 then Some batch else None)
          (Run.Benchmark bench))
      (tup5
         (tup3
            (oneofl [ "swim"; "galgel"; "mesa" ])
            (int_range 0 255)
            (map (fun n -> n = 0) (int_range 0 9)))
         (tup3 (float_bound_inclusive 20.0) (float_bound_inclusive 0.1)
            (int_range 1 64))
         (tup3 bool bool bool)
         (int_range 0 512)
         (option gen_setup)))

let qcheck_spec_roundtrip =
  QCheck2.Test.make ~count:100 ~name:"dpm-spec/1 JSON round-trip fixpoint"
    gen_spec spec_json_fixpoint

let test_spec_roundtrip_full () =
  (* One fully loaded spec, deterministically: every optional field. *)
  let s =
    Run.spec
      ~scheme_names:[ "Base"; "CMDRPM"; "Adaptive" ]
      ~sim:
        (Config.make ~tpm_threshold:7.5 ~drpm_lower:0.03 ~drpm_upper:0.2
           ~drpm_window:12 ~drpm_idle_interval:0.75 ~drpm_floor_depth:6
           ~queue_depth:16 ~pm_call_overhead:0.002 ~pre_activation_lead:0.1
           ())
      ~mode:`Closed ~version:Dpm_compiler.Pipeline.TL_DL ~faults:Gen.fault_spec
      ~stream:true ~batch:64 ~core:`Reference (Run.Benchmark "swim")
  in
  Alcotest.(check bool) "fixpoint" true (spec_json_fixpoint s);
  (* And via a file, as the sweep harness writes them. *)
  let path = Filename.temp_file "dpm_spec" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Run.to_file s path with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Run.error_message e));
      match Run.of_file path with
      | Error e -> Alcotest.fail (Run.error_message e)
      | Ok s' ->
          let doc s =
            match Run.to_json s with
            | Ok j -> Json.to_string j
            | Error e -> Alcotest.fail (Run.error_message e)
          in
          Alcotest.(check string) "file round-trip fixpoint" (doc s) (doc s'))

let test_spec_rejections () =
  let malformed = function
    | Error (Run.Malformed_spec _) -> true
    | Ok _ | Error _ -> false
  in
  let p, plan = Experiment.workload (Dpm_workloads.Suite.find "swim") in
  Alcotest.(check bool) "Program workload not serializable" true
    (malformed (Run.to_json (Run.spec (Run.Program (p, plan)))));
  Alcotest.(check bool) "wrong schema tag" true
    (malformed
       (Run.of_json (Json.Obj [ ("schema", Json.Str "dpm-spec/9") ])));
  Alcotest.(check bool) "missing workload" true
    (malformed
       (Run.of_json (Json.Obj [ ("schema", Json.Str "dpm-spec/1") ])));
  Alcotest.(check bool) "unknown disk model" true
    (malformed
       (Run.of_json
          (Json.Obj
             [
               ("schema", Json.Str "dpm-spec/1");
               ( "workload",
                 Json.Obj
                   [ ("kind", Json.Str "benchmark"); ("name", Json.Str "swim") ]
               );
               ("schemes", Json.Arr [ Json.Str "Base" ]);
               ("sim", Json.Obj [ ("specs", Json.Str "Maxtor 1000") ]);
             ])));
  let doc fields =
    Json.Obj
      ([
         ("schema", Json.Str "dpm-spec/1");
         ( "workload",
           Json.Obj [ ("kind", Json.Str "benchmark"); ("name", Json.Str "swim") ]
         );
       ]
      @ fields)
  in
  let base = Json.Arr [ Json.Str "Base" ] in
  Alcotest.(check bool) "empty scheme array" true
    (malformed (Run.of_json (doc [ ("schemes", Json.Arr []) ])));
  (* A simulator configuration that breaks a Config invariant is a bad
     document, not an exception out of the parser. *)
  List.iter
    (fun (label, sim) ->
      Alcotest.(check bool) label true
        (malformed
           (Run.of_json (doc [ ("schemes", base); ("sim", Json.Obj sim) ]))))
    [
      ("queue_depth 0", [ ("queue_depth", Json.Int 0) ]);
      ( "drpm tolerances out of order",
        [ ("drpm_lower", Json.Int 5); ("drpm_upper", Json.Float 0.1) ] );
      ("negative drpm_window", [ ("drpm_window", Json.Int (-1)) ]);
    ];
  (* A field that is present must have its type: a wrongly typed setup
     or sim field is an error naming its path, not its default. *)
  let rejected label fields =
    match
      Run.of_json (doc [ ("schemes", base); ("setup", Json.Obj fields) ])
    with
    | Error (Run.Malformed_spec m) -> m
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error e -> Alcotest.failf "%s: %s" label (Run.error_message e)
  in
  let names_path path m =
    let want = path ^ ": expected" in
    Alcotest.(check string) path want
      (String.sub m 0 (min (String.length m) (String.length want)))
  in
  List.iter
    (fun (name, v) ->
      names_path ("setup." ^ name) (rejected name [ (name, v) ]))
    [
      ("sim", Json.Str "x");
      ("mode", Json.Int 3);
      ("cache_blocks", Json.Str "16");
      ("noise", Json.Str "0.1");
      ("seed", Json.Float 1.5);
      ("version", Json.Int 1);
      ("faults", Json.Int 1);
      ("stream", Json.Str "yes");
      ("batch", Json.Float 1.5);
      ("core", Json.Bool true);
    ];
  List.iter
    (fun (name, v) ->
      names_path ("setup.sim." ^ name)
        (rejected name [ ("sim", Json.Obj [ (name, v) ]) ]))
    [
      ("specs", Json.Int 1);
      ("fleet", Json.Str "flash");
      ("sched", Json.Int 2);
      ("tpm_threshold", Json.Str "2.0");
      ("drpm_lower", Json.Str "x");
      ("drpm_upper", Json.Bool true);
      ("drpm_window", Json.Float 10.5);
      ("drpm_idle_interval", Json.Str "1");
      ("drpm_floor_depth", Json.Float 1.5);
      ("queue_depth", Json.Float 1.5);
      ("pm_call_overhead", Json.Null);
      ("pre_activation_lead", Json.Arr []);
      ("retain_busy", Json.Str "yes");
    ];
  (* Setup invariants fail when the document is read, before any work. *)
  List.iter
    (fun (label, fields) -> ignore (rejected label fields : string))
    [
      ("batch 0", [ ("batch", Json.Int 0) ]);
      ("cache_blocks -5", [ ("cache_blocks", Json.Int (-5)) ]);
      ("noise -1", [ ("noise", Json.Int (-1)) ]);
    ]

(* Documents written while busy intervals could be switched off carry
   a boolean "setup.sim.retain_busy".  Every replay now keeps them, so
   the field is read, type-checked and ignored: such a document runs,
   oracles included, exactly as it would without the field. *)
let test_spec_retain_busy_ignored () =
  let doc schemes sim =
    Json.Obj
      [
        ("schema", Json.Str "dpm-spec/1");
        ( "workload",
          Json.Obj
            [ ("kind", Json.Str "benchmark"); ("name", Json.Str "galgel") ] );
        ("schemes", Json.Arr (List.map (fun n -> Json.Str n) schemes));
        ("setup", Json.Obj [ ("sim", Json.Obj sim) ]);
      ]
  in
  let run schemes sim =
    match Run.of_json (doc schemes sim) with
    | Error e -> Alcotest.failf "read: %s" (Run.error_message e)
    | Ok s -> (
        match Run.exec_all s with
        | Ok results -> results
        | Error e -> Alcotest.failf "run: %s" (Run.error_message e))
  in
  List.iter
    (fun schemes ->
      let label = String.concat "," schemes in
      let plain = run schemes [] in
      List.iter
        (fun flag ->
          let older = run schemes [ ("retain_busy", Json.Bool flag) ] in
          Alcotest.(check bool)
            (Printf.sprintf "%s, retain_busy %b: same results" label flag)
            true (older = plain))
        [ false; true ])
    [ [ "Base"; "ITPM" ]; [ "IDRPM" ] ];
  (* A present field still has to be a boolean. *)
  match Run.of_json (doc [ "ITPM" ] [ ("retain_busy", Json.Str "yes") ]) with
  | Error (Run.Malformed_spec m) ->
      let want = "setup.sim.retain_busy: expected" in
      Alcotest.(check string) "names the field" want
        (String.sub m 0 (min (String.length m) (String.length want)))
  | Ok _ -> Alcotest.fail "retain_busy \"yes\" accepted"
  | Error e -> Alcotest.fail (Run.error_message e)

(* Documents written before the whole setup was carry top-level
   overrides; the reader folds them exactly as [Run.spec]'s labelled
   arguments do, and over a "setup" object the top-level field wins. *)
let test_spec_legacy_fields () =
  let describe s =
    match Run.describe s with
    | Ok d -> d
    | Error e -> Alcotest.fail (Run.error_message e)
  in
  let parse fields =
    match
      Run.of_json
        (Json.Obj
           ([
              ("schema", Json.Str "dpm-spec/1");
              ( "workload",
                Json.Obj
                  [ ("kind", Json.Str "benchmark"); ("name", Json.Str "swim") ]
              );
              ("schemes", Json.Arr [ Json.Str "Base"; Json.Str "CMDRPM" ]);
            ]
           @ fields))
    with
    | Ok s -> describe s
    | Error e -> Alcotest.fail (Run.error_message e)
  in
  let same = Alcotest.(check bool) in
  let sim = Config.make ~tpm_threshold:7.5 ~queue_depth:16 () in
  same "top-level fields = Run.spec overrides" true
    (parse
       [
         ( "sim",
           Json.Obj
             [ ("tpm_threshold", Json.Float 7.5); ("queue_depth", Json.Int 16) ]
         );
         ("mode", Json.Str "closed");
         ("version", Json.Str "TL+DL");
         ("faults", Json.Str (Dpm_sim.Fault.to_string Gen.fault_spec));
         ("stream", Json.Bool true);
         ("batch", Json.Int 64);
         ("core", Json.Str "reference");
       ]
    = describe
        (Run.spec ~sim ~mode:`Closed ~version:Dpm_compiler.Pipeline.TL_DL
           ~faults:Gen.fault_spec ~stream:true ~batch:64 ~core:`Reference
           (Run.Benchmark "swim")));
  same "top-level field wins over setup" true
    (parse
       [
         ( "setup",
           Json.Obj
             [
               ("noise", Json.Float 0.3);
               ("version", Json.Str "LF");
               ("batch", Json.Int 9);
             ] );
         ("version", Json.Str "TL+DL");
       ]
    = describe
        (Run.spec
           ~setup:
             (Experiment.make_setup ~noise:0.3
                ~version:Dpm_compiler.Pipeline.LF ~batch:9 ())
           ~version:Dpm_compiler.Pipeline.TL_DL (Run.Benchmark "swim")))

(* --- Adaptive policy invariants --- *)

let qcheck_adaptive_clamp =
  QCheck2.Test.make ~count:50
    ~name:"adaptive thresholds stay within [2 s, 4 x break-even]"
    Gen.gen_trace
    (fun trace ->
      let policy, thresholds =
        Policy.adaptive_with_state Config.default
          ~ndisks:(Dpm_trace.Trace.ndisks trace)
      in
      ignore (Engine.run policy trace);
      Array.for_all
        (fun t -> t >= 2.0 && t <= 4.0 *. break_even)
        thresholds)

(* The acceptance property, run on the whole suite: online tuning may
   fail to find savings on a workload, but it must never spend more
   energy than no power management at all, and it can never beat the
   oracle that sees every gap in advance. *)
let test_adaptive_never_worse_than_base () =
  List.iter
    (fun (spec : Dpm_workloads.Suite.spec) ->
      let name = spec.Dpm_workloads.Suite.name in
      match
        Run.exec_all
          (Run.spec
             ~schemes:[ Scheme.Base; Scheme.Adaptive; Scheme.Idrpm ]
             (Run.Benchmark name))
      with
      | Error e -> Alcotest.fail (Run.error_message e)
      | Ok results ->
          let energy s = (List.assoc s results).Res.energy in
          Alcotest.(check bool)
            (name ^ ": Adaptive never worse than Base")
            true
            (energy Scheme.Adaptive <= energy Scheme.Base +. 1e-6);
          Alcotest.(check bool)
            (name ^ ": Adaptive above the IDRPM oracle bound")
            true
            (energy Scheme.Adaptive >= energy Scheme.Idrpm -. 1e-6))
    Dpm_workloads.Suite.all

(* --- The sweep driver --- *)

let smoke_axes =
  [
    { Sweep.name = "tpm-threshold"; values = [ 4.0; 15.2 ] };
    { Sweep.name = "drpm-lower"; values = [ 0.02; 0.08 ] };
  ]

let smoke_schemes = [ Scheme.Base; Scheme.Tpm; Scheme.Adaptive ]

let run_smoke ?domains () =
  match
    Sweep.run ~schemes:smoke_schemes ?domains ~axes:smoke_axes
      ~workloads:[ "mesa" ] ()
  with
  | Ok outcome -> outcome
  | Error e -> Alcotest.fail (Run.error_message e)

let test_sweep_deterministic () =
  let a = run_smoke ~domains:1 () in
  let b = run_smoke ~domains:1 () in
  let c = run_smoke ~domains:4 () in
  Alcotest.(check int) "4 cells" 4 (List.length a.Sweep.cells);
  Alcotest.(check bool) "re-run bit-identical" true
    (a.Sweep.cells = b.Sweep.cells);
  Alcotest.(check bool) "1 vs 4 domains bit-identical" true
    (a.Sweep.cells = c.Sweep.cells);
  (* Best table and winners are pure functions of the outcome, so their
     determinism follows; pin the shape anyway. *)
  let best = Sweep.best a in
  Alcotest.(check int) "one best row per non-Base scheme" 2
    (List.length best);
  Alcotest.(check bool) "best rows deterministic" true (best = Sweep.best b);
  (match Sweep.winners a with
  | [ (scheme, cell, _) ] ->
      Alcotest.(check string) "winner workload" "mesa" cell.Sweep.workload;
      Alcotest.(check bool) "winner is implementable" true
        (not (Scheme.is_ideal scheme) && scheme <> Scheme.Base)
  | _ -> Alcotest.fail "expected exactly one winner");
  (match Sweep.validate (Sweep.to_json a) with
  | Ok () -> ()
  | Error msgs -> Alcotest.fail (String.concat "; " msgs));
  let rendered = Sweep.render a in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("render mentions " ^ needle) true
        (contains rendered needle))
    [ "Best configuration"; "Winners"; "sensitivity"; "tpm-threshold" ];
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("markdown mentions " ^ needle) true
        (contains (Sweep.markdown a) needle))
    [ "## Best configuration"; "## Winners"; "## Sensitivity" ]

let test_winning_spec_replays () =
  let outcome = run_smoke () in
  match Sweep.winners outcome with
  | [ (_, cell, _) ] -> (
      let spec =
        match Sweep.best_spec outcome ~workload:"mesa" with
        | Some s -> s
        | None -> Alcotest.fail "no winning spec"
      in
      let path = Filename.temp_file "dpm_sweep_best" ".spec.json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          (match Run.to_file spec path with
          | Ok () -> ()
          | Error e -> Alcotest.fail (Run.error_message e));
          match Result.bind (Run.of_file path) Run.exec_all with
          | Error e -> Alcotest.fail (Run.error_message e)
          | Ok results ->
              Alcotest.(check bool)
                "persisted winning spec replays bit-identically" true
                (results = cell.Sweep.results)))
  | _ -> Alcotest.fail "expected exactly one winner"

let test_normalized_table () =
  let outcome = run_smoke () in
  let first_point = List.hd (Sweep.expand smoke_axes) in
  let rows =
    List.filter_map
      (fun (cell : Sweep.cell) ->
        if cell.Sweep.point = first_point then
          Some (cell.Sweep.workload, cell.Sweep.results)
        else None)
      outcome.Sweep.cells
  in
  let table =
    Sweep.normalized_table ~metric:`Energy ~schemes:smoke_schemes
      ~extra:("note", fun _ -> Some 1.5)
      rows
  in
  let lines = String.split_on_char '\n' table in
  (* header + one row per workload + AVG + trailing "" *)
  Alcotest.(check int) "header, rows, AVG" (List.length rows + 3)
    (List.length lines);
  Alcotest.(check bool) "AVG row present" true
    (List.exists
       (fun l -> String.length l >= 3 && String.sub l 0 3 = "AVG")
       lines);
  Alcotest.(check bool) "Base column normalizes to 1.000" true
    (contains table "1.000");
  Alcotest.(check bool) "extra column rendered" true (contains table "1.50")

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "sweep.grid",
      [
        Alcotest.test_case "cartesian expansion" `Quick test_expand;
        Alcotest.test_case "axes_of_string" `Quick test_axes_of_string;
        Alcotest.test_case "apply settings" `Quick test_apply;
        Alcotest.test_case "invalid points rejected" `Quick
          test_invalid_points_rejected;
        Alcotest.test_case "axis order does not decide validity" `Quick
          test_axis_order_irrelevant;
      ] );
    ( "sweep.spec",
      [
        q qcheck_spec_roundtrip;
        Alcotest.test_case "fully loaded spec round-trips" `Quick
          test_spec_roundtrip_full;
        Alcotest.test_case "malformed specs rejected" `Quick
          test_spec_rejections;
        Alcotest.test_case "legacy top-level fields" `Quick
          test_spec_legacy_fields;
        Alcotest.test_case "older retain_busy documents still read" `Quick
          test_spec_retain_busy_ignored;
      ] );
    ( "sweep.adaptive",
      [
        q qcheck_adaptive_clamp;
        Alcotest.test_case "never worse than Base, above oracle" `Slow
          test_adaptive_never_worse_than_base;
      ] );
    ( "sweep.driver",
      [
        Alcotest.test_case "deterministic grid (1 vs 4 domains)" `Slow
          test_sweep_deterministic;
        Alcotest.test_case "winning spec replays bit-identically" `Slow
          test_winning_spec_replays;
        Alcotest.test_case "normalized table printer" `Slow
          test_normalized_table;
      ] );
  ]
