(* Tests for Dpm_trace: event (de)serialization, trace containers, and the
   trace generator's miss accounting. *)

module Request = Dpm_trace.Request
module Trace = Dpm_trace.Trace
module Generate = Dpm_trace.Generate
module Parser = Dpm_ir.Parser
module Plan = Dpm_layout.Plan

let kib = Dpm_util.Units.kib

(* --- Request line round-trips --- *)

let sample_events =
  [
    Request.Io
      {
        think = 0.00125;
        disk = 3;
        block = 42;
        bytes = kib 64;
        kind = Request.Read;
        nest = 2;
        iter = 17;
      };
    Request.Io
      {
        think = 0.0;
        disk = 0;
        block = 0;
        bytes = 512;
        kind = Request.Write;
        nest = 0;
        iter = 0;
      };
    Request.Pm { think = 1.5; directive = Request.Spin_down 7 };
    Request.Pm { think = 0.0; directive = Request.Spin_up 0 };
    Request.Pm { think = 2e-6; directive = Request.Set_rpm { level = 4; disk = 5 } };
  ]

let test_line_roundtrip () =
  List.iter
    (fun e ->
      let e' = Request.of_line (Request.to_line e) in
      Alcotest.(check bool) "round-trip" true (e = e'))
    sample_events

let test_line_malformed () =
  List.iter
    (fun line ->
      try
        ignore (Request.of_line line);
        Alcotest.fail ("should reject: " ^ line)
      with Failure _ -> ())
    [ "nonsense"; "io 1.0 2"; "pm 1.0 sideways 3"; "io 1.0 0 0 64 x 0 0" ]

let qcheck_io_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"trace: io line round-trip"
    QCheck2.Gen.(
      tup6 (float_bound_exclusive 10.0) (int_bound 31) (int_bound 100000)
        (int_range 1 65536) bool (int_bound 5000))
    (fun (think, disk, block, bytes, read, iter) ->
      let io =
        Request.Io
          {
            think;
            disk;
            block;
            bytes;
            kind = (if read then Request.Read else Request.Write);
            nest = 1;
            iter;
          }
      in
      match (Request.of_line (Request.to_line io), io) with
      | Request.Io io', Request.Io io0 ->
          Float.abs (io'.Request.think -. io0.Request.think) < 1e-8
          && io'.disk = io0.disk && io'.block = io0.block
          && io'.bytes = io0.bytes && io'.kind = io0.kind
          && io'.iter = io0.iter
      | _ -> false)

(* --- Trace containers --- *)

let test_trace_counters () =
  let t = Trace.make ~tail_think:0.5 ~program:"p" ~ndisks:8 sample_events in
  Alcotest.(check int) "io count" 2 (Trace.io_count t);
  Alcotest.(check int) "pm count" 3 (Trace.pm_count t);
  Alcotest.(check int) "bytes" (kib 64 + 512) (Trace.total_bytes t);
  Alcotest.(check (float 1e-9)) "think incl tail"
    (0.00125 +. 1.5 +. 2e-6 +. 0.5)
    (Trace.total_think t);
  Alcotest.(check (list int)) "disks used" [ 0; 3 ] (Trace.disks_used t)

let test_trace_rejects_bad_disk () =
  Alcotest.check_raises "disk out of range"
    (Invalid_argument "Trace.make: request disk out of range") (fun () ->
      ignore (Trace.make ~program:"p" ~ndisks:2 sample_events))

let test_trace_without_pm_preserves_think () =
  let t = Trace.make ~tail_think:0.25 ~program:"p" ~ndisks:8 sample_events in
  let t' = Trace.without_pm t in
  Alcotest.(check int) "no pm" 0 (Trace.pm_count t');
  Alcotest.(check int) "same io" (Trace.io_count t) (Trace.io_count t');
  Alcotest.(check (float 1e-9)) "compute timeline preserved"
    (Trace.total_think t) (Trace.total_think t')

let test_trace_save_load () =
  let t = Trace.make ~tail_think:0.125 ~program:"prog" ~ndisks:8 sample_events in
  let path = Filename.temp_file "dpm" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save t path;
      let t' = Trace.load path in
      Alcotest.(check string) "program" (Trace.program t) (Trace.program t');
      Alcotest.(check int) "ndisks" (Trace.ndisks t) (Trace.ndisks t');
      Alcotest.(check (float 1e-9))
        "tail" (Trace.tail_think t) (Trace.tail_think t');
      Alcotest.(check int) "events" (Trace.event_count t)
        (Trace.event_count t');
      let events' = Trace.events t' in
      Array.iteri
        (fun i e ->
          Alcotest.(check string) "event line" (Request.to_line e)
            (Request.to_line events'.(i)))
        (Trace.events t))

(* --- Generator --- *)

let simple_program () =
  Parser.program ~name:"gen"
    {|
array A[32] : 8192
array B[32] : 8192
for t = 1 to 2 {
  for i = 0 to 31 { B[i] = A[i] work 1000 }
}
|}

let test_generate_cold_misses () =
  let p = simple_program () in
  let plan = Plan.uniform ~ndisks:8 p in
  let trace =
    Generate.run ~config:{ Generate.default_config with cache_blocks = 64 } p plan
  in
  Alcotest.(check int) "cold misses only" 8 (Trace.io_count trace);
  (match Trace.io_events trace with
  | first :: _ ->
      Alcotest.(check bool) "first is read" true (first.Request.kind = Request.Read)
  | [] -> Alcotest.fail "no events");
  Alcotest.(check bool) "writes present" true
    (List.exists
       (fun (io : Request.io) -> io.Request.kind = Request.Write)
       (Trace.io_events trace))

let test_generate_thrash_on_tiny_cache () =
  let p = simple_program () in
  let plan = Plan.uniform ~ndisks:8 p in
  let trace =
    Generate.run ~config:{ Generate.default_config with cache_blocks = 2 } p plan
  in
  Alcotest.(check int) "both sweeps miss" 16 (Trace.io_count trace)

let test_generate_deterministic () =
  let p = simple_program () in
  let plan = Plan.uniform ~ndisks:8 p in
  let t1 = Generate.run p plan and t2 = Generate.run p plan in
  Alcotest.(check int) "same length" (Trace.event_count t1)
    (Trace.event_count t2);
  let events2 = Trace.events t2 in
  Array.iteri
    (fun i e ->
      Alcotest.(check string) "same event" (Request.to_line e)
        (Request.to_line events2.(i)))
    (Trace.events t1)

let test_generate_think_accounts_work () =
  let p = simple_program () in
  let plan = Plan.uniform ~ndisks:8 p in
  let trace = Generate.run p plan in
  let work_seconds = 64.0 *. 1000.0 /. 750e6 in
  Alcotest.(check bool) "think >= work" true
    (Trace.total_think trace >= work_seconds)

let test_generate_pm_passthrough () =
  let p =
    Parser.program ~name:"pm"
      {|
array A[8] : 8192
spin_down(3)
for i = 0 to 7 { use A[i] work 10 }
spin_up(3)
|}
  in
  let plan = Plan.uniform ~ndisks:8 p in
  let trace = Generate.run p plan in
  Alcotest.(check int) "directives pass through" 2 (Trace.pm_count trace);
  match (Trace.events trace).(0) with
  | Request.Pm { directive = Request.Spin_down 3; _ } -> ()
  | _ -> Alcotest.fail "first event should be the spin_down directive"

(* --- The loop-nest walk's cycle accounting --- *)

(* The cycles the walk hands its callbacks, plus the tail it returns,
   must equal the analytic total: [Cost.nest_cycles] per top-level loop
   plus [Cost.stmt_cycles] per top-level statement (calls cost nothing).
   Covers the suite under three versions, plain and CMDRPM-compiled (the
   compiler puts its calls between loop segments), and a small program
   with calls inside loops and a triangular nest. *)
let test_walk_cycle_accounting () =
  let module Suite = Dpm_workloads.Suite in
  let module Pipeline = Dpm_compiler.Pipeline in
  let cost = Dpm_ir.Cost.default in
  let specs = Dpm_disk.Specs.ultrastar_36z15 in
  let analytic (p : Dpm_ir.Program.t) =
    List.fold_left
      (fun acc -> function
        | Dpm_ir.Loop.For l -> acc + Dpm_ir.Cost.nest_cycles cost l
        | Dpm_ir.Loop.Stmt s -> acc + Dpm_ir.Cost.stmt_cycles cost s
        | Dpm_ir.Loop.Call _ -> acc)
      0 p.body
  in
  let check label p plan =
    let total = ref 0 and calls = ref 0 in
    let tail =
      Dpm_trace.Walk.run ~cost ~cache_blocks:Suite.cache_blocks
        ~iteration:(fun ~cycles ~item:_ ~ordinal:_ ~iter:_ ->
          total := !total + cycles)
        ~miss:(fun ~cycles ~item:_ ~array:_ ~unit:_ ~kind:_ ->
          total := !total + cycles)
        ~call:(fun ~cycles _ ->
          incr calls;
          total := !total + cycles)
        p plan
    in
    Alcotest.(check int) label (analytic p) (!total + tail);
    !calls
  in
  let suite_calls =
    List.concat_map
      (fun (spec : Suite.spec) ->
        let p0, plan0 = Dpm_core.Experiment.workload spec in
        List.map
          (fun version ->
            let p, plan = Pipeline.transform version p0 plan0 in
            let cm =
              Pipeline.compile ~scheme:Dpm_compiler.Insertion.Drpm
                ~cache_blocks:Suite.cache_blocks ~specs p plan
            in
            let label kind =
              Printf.sprintf "%s %s %s" spec.Suite.name
                (Pipeline.version_name version) kind
            in
            ignore (check (label "plain") p plan : int);
            check (label "CMDRPM") cm.Pipeline.program plan)
          [ Pipeline.Orig; Pipeline.LF_DL; Pipeline.TL_DL ])
      Suite.all
  in
  Alcotest.(check bool) "compiled programs execute calls" true
    (List.fold_left ( + ) 0 suite_calls > 0);
  let nested =
    Parser.program ~name:"nested"
      {|
array A[16][16] : 8192
use A[0][0] work 3
spin_down(1)
for i = 0 to 15 step 3 {
  spin_up(1)
  for j = 0 to i {
    A[i][j] = A[j][i] work 7
    set_rpm(2, 1)
  }
}
use A[1][1] work 5
|}
  in
  Alcotest.(check int) "nested calls all execute" 58
    (check "nested" nested (Plan.uniform ~ndisks:8 nested))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "trace.request",
      [
        Alcotest.test_case "line round-trip" `Quick test_line_roundtrip;
        Alcotest.test_case "malformed lines" `Quick test_line_malformed;
        q qcheck_io_roundtrip;
      ] );
    ( "trace.container",
      [
        Alcotest.test_case "counters" `Quick test_trace_counters;
        Alcotest.test_case "bad disk" `Quick test_trace_rejects_bad_disk;
        Alcotest.test_case "without_pm" `Quick test_trace_without_pm_preserves_think;
        Alcotest.test_case "save/load" `Quick test_trace_save_load;
      ] );
    ( "trace.generate",
      [
        Alcotest.test_case "cold misses" `Quick test_generate_cold_misses;
        Alcotest.test_case "thrash" `Quick test_generate_thrash_on_tiny_cache;
        Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
        Alcotest.test_case "think includes work" `Quick
          test_generate_think_accounts_work;
        Alcotest.test_case "pm passthrough" `Quick test_generate_pm_passthrough;
      ] );
    ( "trace.walk",
      [
        Alcotest.test_case "cycle accounting" `Slow test_walk_cycle_accounting;
      ] );
  ]
