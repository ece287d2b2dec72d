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

(* The row check [Trace.make] shares with the file reader: everything
   the replay cannot price or index is refused up front. *)
let test_trace_rejects_unreplayable () =
  let rejects label why events =
    Alcotest.check_raises label (Invalid_argument ("Trace.make: " ^ why))
      (fun () -> ignore (Trace.make ~program:"p" ~ndisks:4 events))
  in
  let io ?(think = 0.0) ?(block = 0) ?(bytes = 512) () =
    Request.Io
      { think; disk = 0; block; bytes; kind = Request.Read; nest = 0; iter = 0 }
  in
  let pm directive = Request.Pm { think = 0.0; directive } in
  rejects "directive on disk 4 of 4" "directive disk out of range"
    [ pm (Request.Spin_down 4) ];
  rejects "negative directive disk" "directive disk out of range"
    [ pm (Request.Set_rpm { level = 0; disk = -1 }) ];
  rejects "negative RPM level" "negative RPM level"
    [ pm (Request.Set_rpm { level = -3; disk = 0 }) ];
  rejects "NaN think" "think time not finite and >= 0" [ io ~think:Float.nan () ];
  rejects "infinite think" "think time not finite and >= 0"
    [ io ~think:Float.infinity () ];
  rejects "negative think" "think time not finite and >= 0"
    [ io ~think:(-0.1) () ];
  rejects "negative block" "negative request block" [ io ~block:(-5) () ];
  rejects "negative bytes" "negative request size" [ io ~bytes:(-8192) () ];
  Alcotest.check_raises "negative tail"
    (Invalid_argument "Trace.make: tail think time not finite and >= 0")
    (fun () -> ignore (Trace.make ~tail_think:(-1.0) ~program:"p" ~ndisks:4 []));
  Alcotest.check_raises "disk count above max_disks"
    (Invalid_argument
       (Printf.sprintf "Trace.make: disk count %d above Trace.max_disks (%d)"
          (Trace.max_disks + 1) Trace.max_disks))
    (fun () ->
      ignore (Trace.make ~program:"p" ~ndisks:(Trace.max_disks + 1) []));
  (* A level above a disk's top is replayable: it clamps at replay. *)
  ignore
    (Trace.make ~program:"p" ~ndisks:4
       [ pm (Request.Set_rpm { level = 99; disk = 3 }); io () ])

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
   must equal the analytic total, [Cost.program_cycles]: [Cost.nest_cycles]
   per top-level loop plus [Cost.stmt_cycles] per top-level statement
   (calls cost nothing).
   Covers the suite under three versions, plain and CMDRPM-compiled (the
   compiler puts its calls between loop segments), and a small program
   with calls inside loops and a triangular nest. *)
let test_walk_cycle_accounting () =
  let module Suite = Dpm_workloads.Suite in
  let module Pipeline = Dpm_compiler.Pipeline in
  let cost = Dpm_ir.Cost.default in
  let specs = Dpm_disk.Specs.ultrastar_36z15 in
  let analytic = Dpm_ir.Cost.program_cycles cost in
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

(* --- The walk against a reference walk --- *)

(* Every callback the walk makes, with its cycles, then how the walk
   ended: the tail it returned or the exception it raised. *)
type walk_event =
  | W_iteration of { cycles : int; item : int; ordinal : int; iter : int }
  | W_miss of {
      cycles : int;
      item : int;
      array : string;
      unit : int;
      kind : Request.kind;
    }
  | W_call of { cycles : int; call : Dpm_ir.Loop.pm_call }

let record_walk walk =
  let events = ref [] in
  let push e = events := e :: !events in
  let ending =
    match
      walk
        ~iteration:(fun ~cycles ~item ~ordinal ~iter ->
          push (W_iteration { cycles; item; ordinal; iter }))
        ~miss:(fun ~cycles ~item ~array ~unit ~kind ->
          push (W_miss { cycles; item; array; unit; kind }))
        ~call:(fun ~cycles call -> push (W_call { cycles; call }))
    with
    | tail -> Ok tail
    | exception e -> Error (Printexc.to_string e)
  in
  (List.rev !events, ending)

(* The walk's contract written out directly: [Enumerate] runs the nest,
   [Reference.eval] evaluates each subscript list, [Array_decl]
   linearizes in the plan's storage order, the byte offset over the
   stripe size is the unit, and a plain list of (array, unit) keys, most
   recently used first, is the cache.  An index out of range raises the
   plan's message. *)
let reference_walk ~cost ~cache_blocks ~iteration ~miss ~call
    (p : Dpm_ir.Program.t) plan =
  let module Ir = Dpm_ir in
  let closed x = invalid_arg ("Walk: unbound iterator " ^ x) in
  let origin =
    Array.of_list
      (List.map
         (function
           | Ir.Loop.For l -> (Ir.Expr.eval closed l.lo, l.step)
           | Ir.Loop.Stmt _ | Ir.Loop.Call _ -> (0, 1))
         p.body)
  in
  let resident = ref [] and held = ref 0 in
  let same (a, u) (b, v) = u = v && String.equal a b in
  let hit key =
    if List.exists (same key) !resident then begin
      resident := key :: List.filter (fun k -> not (same key k)) !resident;
      true
    end
    else begin
      if cache_blocks > 0 then begin
        if !held >= cache_blocks then
          resident := List.filteri (fun i _ -> i < !held - 1) !resident
        else incr held;
        resident := key :: !resident
      end;
      false
    end
  in
  let unit_of (r : Ir.Reference.t) env =
    let idx = Ir.Reference.eval env r in
    let e = Plan.entry plan r.array in
    let linearize =
      match e.Plan.order with
      | Plan.Row_major -> Ir.Array_decl.linearize
      | Plan.Col_major -> Ir.Array_decl.linearize_colmajor
    in
    let linear =
      try linearize e.Plan.decl idx
      with Invalid_argument _ ->
        invalid_arg ("Plan.element_offset: index out of range for " ^ r.array)
    in
    linear * e.Plan.decl.Ir.Array_decl.elem_size
    / e.Plan.striping.Dpm_layout.Striping.stripe_size
  in
  let cycles = ref 0 in
  let take () =
    let c = !cycles in
    cycles := 0;
    c
  in
  let item = ref (-1) and iter = ref 0 in
  let touch ~nest ~kind (r : Ir.Reference.t) env =
    let u = unit_of r env in
    if not (hit (r.array, u)) then
      miss ~cycles:(take ()) ~item:nest ~array:r.array ~unit:u ~kind
  in
  Enumerate.run
    {
      on_enter =
        (fun ~nest ~depth ~var:_ ~value ->
          if depth = 0 then begin
            let lo, step = origin.(nest) in
            item := nest;
            iter := value;
            iteration ~cycles:(take ()) ~item:nest
              ~ordinal:((value - lo) / step) ~iter:value
          end;
          cycles := !cycles + cost.Ir.Cost.loop_overhead);
      on_stmt =
        (fun ~nest s env ->
          if nest <> !item then begin
            item := nest;
            iteration ~cycles:(take ()) ~item:nest ~ordinal:0 ~iter:!iter
          end;
          cycles := !cycles + Ir.Cost.stmt_cycles cost s;
          List.iter (fun r -> touch ~nest ~kind:Request.Read r env) s.reads;
          Option.iter (fun w -> touch ~nest ~kind:Request.Write w env) s.write);
      on_call = (fun ~nest:_ c _ -> call ~cycles:(take ()) c);
    }
    p;
  take ()

let walk_cost = Dpm_ir.Cost.default

(* The walks of one program, plan and cache, recorded: the kernel's,
   its log replayed, and the reference walk. *)
let walks ~cache_blocks p plan =
  ( record_walk (fun ~iteration ~miss ~call ->
        Dpm_trace.Walk.run ~cost:walk_cost ~cache_blocks ~iteration ~miss
          ~call p plan),
    record_walk (fun ~iteration ~miss ~call ->
        Dpm_trace.Walk.iter
          (Dpm_trace.Walk.log ~cost:walk_cost ~cache_blocks p plan)
          ~iteration ~miss ~call),
    record_walk (fun ~iteration ~miss ~call ->
        reference_walk ~cost:walk_cost ~cache_blocks ~iteration ~miss ~call p
          plan) )

let same_walks (got, got_end) (want, want_end) =
  List.length got = List.length want
  && List.for_all2 ( = ) got want
  && got_end = want_end

(* A replayed log makes the reference walk's callbacks and returns its
   tail; on a program the walk raises on, [Walk.log] raises the same
   exception before any replay. *)
let same_logged logged (want, want_end) =
  match want_end with
  | Ok _ -> same_walks logged (want, want_end)
  | Error _ -> logged = ([], want_end)

let show_ending = function
  | Ok tail -> Printf.sprintf "tail %d" tail
  | Error e -> "raised " ^ e

(* Programs at the walk's edges, with the arrays their plans place (a
   program whose plan lacks an array references it where that
   reference runs, or where it never does). *)
let walk_edge_programs =
  let program name src = Parser.program ~name src in
  let all (p : Dpm_ir.Program.t) = p.arrays in
  let only names (p : Dpm_ir.Program.t) =
    List.filter
      (fun (a : Dpm_ir.Array_decl.t) -> List.mem a.name names)
      p.arrays
  in
  [
    ( program "triangular"
        {|
array A[40][40] : 1000
array B[40] : 3000
array F[40] : 40000
for i = 0 to 39 {
  for j = i to min(39, i + 7) {
    A[i][j] = A[max(0, j - 3)][j / 2] + B[(i + j) / 3] work 5
  }
}
for k = 0 to 30 step 4 {
  for m = max(0, k - 9) to k / 2 {
    use B[((m - 7) / 4) + 2] + A[(k - m) / 3][min(m, 39)] work 2
    F[8 * ((m - 7) / 4) + 16] = F[max(k - 2 * m, 0)]
  }
}
|},
      all );
    ( program "colmajor"
        {|
array C[12][10][6] : 700
array D[30] : 2600
for i = 0 to 11 {
  for j = 0 to 9 {
    for k = 0 to 5 step 2 { C[i][j][k] = C[k][j][i / 2] + D[i + j] work 1 }
  }
}
|},
      all );
    ( program "toplevel"
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
A[2][2] = A[3][3]
spin_up(0)
for i = 2 to 9 step 7 { use A[i][i] }
use A[15][15]
|},
      all );
    ( program "zerotrip"
        {|
array A[8][8] : 4096
for i = 5 to 2 { use A[i][0] }
for i = 0 to 7 {
  for j = i + 1 to i { use A[i][j] }
  use A[i][i] work 1
}
for i = 3 to 3 { for j = 7 to 0 step 2 { use A[j][i] } }
use A[7][7]
|},
      all );
    ( program "rebound"
        {|
array A[8][8] : 4096
for i = 0 to 3 {
  use A[i][0] work 2
  for i = 4 to 5 { use A[i][1] }
  use A[i][2]
}
|},
      all );
    ( program "rebound-bound"
        {|
array A[8][8] : 4096
for i = 0 to 3 {
  for i = 0 to 1 { use A[i][1] }
  for j = 0 to i { use A[j][2] }
}
|},
      all );
    ( program "rebound-zerotrip"
        {|
array A[8][8] : 4096
for i = 0 to 3 {
  use A[i][3]
  for i = 5 to 4 { use A[i][0] }
  use A[i][1]
}
|},
      all );
    ( program "out-of-range"
        {|
array A[8][8] : 4096
array B[40] : 3000
for i = 0 to 12 { B[i + 30] = A[i / 2][0] + B[i] work 4 }
|},
      all );
    ( program "missing-unexecuted"
        {|
array A[8][8] : 4096
array C[4] : 4096
for i = 0 to 7 {
  use A[i][i] work 1
  for j = 1 to 0 { use C[j] }
}
use A[0][1]
|},
      only [ "A" ] );
    ( program "missing-executed"
        {|
array A[8][8] : 4096
array C[4] : 4096
for i = 0 to 7 { use A[i][i] work 1 }
use C[2] + A[1][1]
|},
      only [ "A" ] );
  ]

let gen_walk_plan (decls : Dpm_ir.Array_decl.t list) =
  QCheck2.Gen.(
    let* ndisks = int_range 1 8 in
    let* entries =
      flatten_l
        (List.map
           (fun decl ->
             let* start_disk = int_bound (ndisks - 1) in
             let* stripe_factor = int_range 1 ndisks in
             let* stripe_kb = int_range 4 256 in
             let* col = bool in
             return
               {
                 Plan.decl;
                 striping =
                   Dpm_layout.Striping.make ~start_disk ~stripe_factor
                     ~stripe_size:(kib stripe_kb);
                 order = (if col then Plan.Col_major else Plan.Row_major);
               })
           decls)
    in
    return (Plan.make ~ndisks entries))

(* A fixed plan per edge program: 4 disks, 8 KB stripes (every array
   here ends in a partial unit), the first array column-major. *)
let edge_plan (p, placed) =
  Plan.make ~ndisks:4
    (List.mapi
       (fun i decl ->
         {
           Plan.decl;
           striping =
             Dpm_layout.Striping.make ~start_disk:1 ~stripe_factor:3
               ~stripe_size:(kib 8);
           order = (if i = 0 then Plan.Col_major else Plan.Row_major);
         })
       (placed p))

let test_walk_edges () =
  List.iter
    (fun ((p, _) as edge) ->
      let plan = edge_plan edge in
      List.iter
        (fun cache_blocks ->
          let got, logged, want = walks ~cache_blocks p plan in
          let label = Printf.sprintf "%s cache=%d" p.name cache_blocks in
          Alcotest.(check int)
            (label ^ " callbacks")
            (List.length (fst want))
            (List.length (fst got));
          Alcotest.(check bool) (label ^ " same walk") true (same_walks got want);
          Alcotest.(check bool)
            (label ^ " same logged walk")
            true (same_logged logged want);
          Alcotest.(check string)
            (label ^ " ending") (show_ending (snd want)) (show_ending (snd got)))
        [ 0; 1; 3; 192 ])
    walk_edge_programs;
  let ending name =
    let p, placed = List.find (fun ((p : Dpm_ir.Program.t), _) -> p.name = name)
        walk_edge_programs
    in
    let plan = Plan.make ~ndisks:2
        (List.map (fun decl -> { Plan.decl; striping = Dpm_layout.Striping.make
          ~start_disk:0 ~stripe_factor:2 ~stripe_size:(kib 8); order = Plan.Row_major })
          (placed p))
    in
    let got, logged, _ = walks ~cache_blocks:4 p plan in
    Alcotest.(check string)
      (name ^ " logged ending")
      (show_ending (snd got)) (show_ending (snd logged));
    show_ending (snd got)
  in
  List.iter
    (fun (name, want) -> Alcotest.(check string) name want (ending name))
    [
      ("rebound", "raised Invalid_argument(\"Enumerate: unbound iterator i\")");
      ("rebound-bound", "raised Invalid_argument(\"Enumerate: unbound iterator i\")");
      ("rebound-zerotrip", "raised Invalid_argument(\"Enumerate: unbound iterator i\")");
      ( "out-of-range",
        "raised Invalid_argument(\"Plan.element_offset: index out of range for B\")" );
      ("missing-executed", "raised Not_found");
    ]

let qcheck_walk_matches_reference =
  let programs = Array.of_list walk_edge_programs in
  QCheck2.Test.make ~count:300 ~name:"walk: equals the reference walk"
    ~print:(fun (i, plan, cache_blocks) ->
      let p, _ = programs.(i) in
      Format.asprintf "%s cache=%d %a" p.Dpm_ir.Program.name cache_blocks
        Plan.pp plan)
    QCheck2.Gen.(
      let* i = int_bound (Array.length programs - 1) in
      let p, placed = programs.(i) in
      let* plan = gen_walk_plan (placed p) in
      let* cache_blocks = int_bound 256 in
      return (i, plan, cache_blocks))
    (fun (i, plan, cache_blocks) ->
      let p, _ = programs.(i) in
      let got, logged, want = walks ~cache_blocks p plan in
      same_walks got want && same_logged logged want)

(* --- Splicing calls into a log --- *)

(* What the splice property walks: the six suite programs under every
   version and the walk-edge programs the walk does not raise on (their
   fixed plans; "zerotrip" has empty loops), each at the suite cache,
   with no cache or with a one-block cache.  Without a cache every
   reference misses (mgrid logs 880k records against 15k at the suite
   cache), so those two caches are drawn one time in twenty, and only
   the suite cache's base logs are kept between cases, to keep the
   property inside its time budget. *)
let splice_programs =
  let module Suite = Dpm_workloads.Suite in
  let module Pipeline = Dpm_compiler.Pipeline in
  let built = lazy (List.map Dpm_core.Experiment.workload Suite.all) in
  let suite =
    List.concat_map
      (fun k ->
        List.map
          (fun version ->
            lazy
              (let p, plan = List.nth (Lazy.force built) k in
               Pipeline.transform version p plan))
          (Pipeline.TL_ALL_DL :: Pipeline.all_versions))
      (List.init (List.length Suite.all) Fun.id)
  in
  let edges =
    List.filter_map
      (fun ((p, _) as edge) ->
        let plan = edge_plan edge in
        match Dpm_trace.Walk.log ~cost:walk_cost ~cache_blocks:0 p plan with
        | _ -> Some (Lazy.from_val (p, plan))
        | exception _ -> None)
      walk_edge_programs
  in
  Array.of_list (suite @ edges)

let splice_base_logs =
  Array.map
    (fun program ->
      lazy
        (let p, plan = Lazy.force program in
         Dpm_trace.Walk.log ~cost:walk_cost ~cache_blocks:192 p plan))
    splice_programs

(* Random points for one program: about half the items get 1-3
   boundaries with 1-3 calls each, on loops, statements and calls alike.
   Ordinals run from -1 to the slots plus one, so the clamp is hit, and
   each call draws a rank; a boundary's calls are ordered as the
   planning step orders them, by (ordinal, rank), stably. *)
let gen_points (p : Dpm_ir.Program.t) ndisks =
  QCheck2.Gen.(
    let call =
      let* disk = int_bound (ndisks - 1) in
      oneof
        [
          return (Dpm_ir.Loop.Spin_down disk);
          return (Dpm_ir.Loop.Spin_up disk);
          map (fun level -> Dpm_ir.Loop.Set_rpm { level; disk }) (int_bound 4);
        ]
    in
    let item_points (i : Dpm_trace.Walk.item) =
      let boundary =
        let* ordinal =
          frequency
            [
              (1, return (-1));
              (1, return 0);
              (1, return i.slots);
              (1, return (i.slots + 1));
              (4, int_range (-1) (i.slots + 1));
            ]
        in
        list_size (int_range 1 3)
          (map2 (fun rank call -> ((ordinal, rank), call)) (int_bound 1) call)
      in
      let* none = bool in
      if none then return []
      else
        let* boundaries = list_size (int_range 1 3) boundary in
        return
          (List.concat boundaries
          |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
          |> List.map (fun ((ordinal, _), call) -> (ordinal, call)))
    in
    map Array.of_list
      (flatten_l
         (List.map item_points (Array.to_list (Dpm_trace.Walk.items p)))))

let show_points points =
  String.concat "; "
    (List.concat
       (List.mapi
          (fun item pts ->
            List.map
              (fun (ordinal, call) ->
                Format.asprintf "%d@%d %a" item ordinal Dpm_ir.Loop.pp_call
                  call)
              pts)
          (Array.to_list points)))

(* Splicing a program's points into its log gives the log a walk of the
   rewritten program records, and the trace derived from it is the
   rewritten program's generated trace ([Generate.run] is [of_log] of
   that walk's log). *)
let qcheck_splice_matches_rewalk =
  let module Walk = Dpm_trace.Walk in
  QCheck2.Test.make ~count:200 ~name:"walk: splice equals a re-walk"
    ~print:(fun (k, cache_blocks, points) ->
      let p, _ = Lazy.force splice_programs.(k) in
      Printf.sprintf "%s cache=%d [%s]" p.Dpm_ir.Program.name cache_blocks
        (show_points points))
    QCheck2.Gen.(
      let* k = int_bound (Array.length splice_programs - 1) in
      let* cache_blocks =
        frequency [ (38, return 192); (1, return 0); (1, return 1) ]
      in
      let p, plan = Lazy.force splice_programs.(k) in
      let* points = gen_points p (Plan.ndisks plan) in
      return (k, cache_blocks, points))
    (fun (k, cache_blocks, points) ->
      let p, plan = Lazy.force splice_programs.(k) in
      let rewritten = Walk.insert_calls points p in
      let base =
        if cache_blocks = 192 then Lazy.force splice_base_logs.(k)
        else Walk.log ~cost:walk_cost ~cache_blocks p plan
      in
      let spliced = Walk.splice base points in
      let rewalked = Walk.log ~cost:walk_cost ~cache_blocks rewritten plan in
      spliced = rewalked
      && Generate.of_log spliced = Generate.of_log rewalked)

(* The six suite programs, each under three seeded random plans at the
   suite cache. *)
let test_walk_suite_random_plans () =
  let module Suite = Dpm_workloads.Suite in
  List.iter
    (fun (spec : Suite.spec) ->
      let p, _ = Dpm_core.Experiment.workload spec in
      List.iter
        (fun seed ->
          let plan =
            QCheck2.Gen.generate1
              ~rand:(Random.State.make [| seed |])
              (gen_walk_plan p.Dpm_ir.Program.arrays)
          in
          let got, logged, want =
            walks ~cache_blocks:Suite.cache_blocks p plan
          in
          let label = Printf.sprintf "%s seed %d" spec.Suite.name seed in
          Alcotest.(check int)
            (label ^ " callbacks")
            (List.length (fst want))
            (List.length (fst got));
          Alcotest.(check bool) (label ^ " same walk") true (same_walks got want);
          Alcotest.(check bool)
            (label ^ " same logged walk")
            true (same_logged logged want);
          Alcotest.(check string)
            (label ^ " ending") (show_ending (snd want)) (show_ending (snd got)))
        [ 1; 2; 3 ])
    Suite.all

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
        Alcotest.test_case "unreplayable rows" `Quick
          test_trace_rejects_unreplayable;
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
        Alcotest.test_case "edge programs" `Quick test_walk_edges;
        q qcheck_walk_matches_reference;
        q qcheck_splice_matches_rewalk;
        Alcotest.test_case "suite under random plans" `Slow
          test_walk_suite_random_plans;
      ] );
  ]
