(* The fast SoA replay core versus the reference body — the PR-6
   acceptance property.  [Engine.run_stream ~core:`Fast] must be
   byte-identical to [~core:`Reference] on results, timeline event
   lists, fault counters and telemetry histograms, for every policy
   shape, batch size and fault setting; and the specialized loop must
   not allocate per event.  The SoA chunk representation itself is
   pinned by lossless round-trip tests against the record events. *)

module Request = Dpm_trace.Request
module Trace = Dpm_trace.Trace
module Stream = Trace.Stream
module Chunk = Stream.Chunk
module Engine = Dpm_sim.Engine
module Policy = Dpm_sim.Policy
module Config = Dpm_sim.Config
module Fault = Dpm_sim.Fault
module Fastpath = Dpm_sim.Fastpath
module Timeline = Dpm_sim.Timeline
module Result = Dpm_sim.Result
module Experiment = Dpm_core.Experiment
module Scheme = Dpm_core.Scheme
module Run = Dpm_core.Run
module Pool = Dpm_util.Pool
module Telemetry = Dpm_util.Telemetry

(* Policies are built fresh per replay: the reactive ones carry mutable
   controller state (DRPM windows, adaptive thresholds) that must not
   leak across runs. *)
let builtin_policies config ~ndisks =
  [
    ("base", fun () -> Policy.base);
    ("tpm", fun () -> Policy.tpm config);
    ("tpm_adaptive", fun () -> Policy.tpm_adaptive config ~ndisks);
    ("drpm", fun () -> Policy.drpm config ~ndisks);
    ("adaptive", fun () -> Policy.adaptive config ~ndisks);
    ("cm_tpm", fun () -> Policy.cm_tpm);
    ("cm_drpm", fun () -> Policy.cm_drpm);
  ]

(* Artificial policies that take request-driven hooks AND trace
   directives: a [Hooked] kind with CMDRPM's directives, and the
   Adaptive auto-tuner made to accept directives. *)
let hooked_directive_policies config ~ndisks =
  [
    ( "hooked_cm",
      fun () ->
        { Policy.cm_drpm with Policy.kind = Policy.Hooked; name = "weird" } );
    ( "directive_adaptive",
      fun () ->
        {
          (Policy.adaptive config ~ndisks) with
          Policy.accepts_directives = true;
        } );
  ]

let policies config ~ndisks =
  builtin_policies config ~ndisks @ hooked_directive_policies config ~ndisks

let replay_pair ?(config = Config.default) ~faults ~batch mk trace =
  let sink_r = Timeline.sink () and sink_f = Timeline.sink () in
  let r_ref =
    Engine.run_stream ~config ~faults ~timeline:sink_r ~core:`Reference
      (mk ())
      (Stream.of_trace ~batch trace)
  in
  let r_fast =
    Engine.run_stream ~config ~faults ~timeline:sink_f ~core:`Fast (mk ())
      (Stream.of_trace ~batch trace)
  in
  ( (r_ref, Timeline.events (Timeline.contents sink_r)),
    (r_fast, Timeline.events (Timeline.contents sink_f)) )

(* --- The core differential property --- *)

(* The fleet varies too: the specialized loop reads per-disk service
   tables and nominal-time caches, and heterogeneous fleets (FCFS, so
   the fast path genuinely engages) must not break the differential. *)
let qcheck_core_equiv =
  QCheck2.Test.make ~count:25
    ~name:
      "fastpath: core:`Fast ≡ core:`Reference (policies × batches × faults × \
       fleets)"
    QCheck2.Gen.(tup2 Gen.gen_trace Gen.gen_fleet)
    (fun (trace, fleet) ->
      let config = Config.with_fleet fleet Config.default in
      let ndisks = Trace.ndisks trace in
      List.for_all
        (fun (_, mk) ->
          List.for_all
            (fun batch ->
              List.for_all
                (fun faults ->
                  let (r_r, tl_r), (r_f, tl_f) =
                    replay_pair ~config ~faults ~batch mk trace
                  in
                  r_r = r_f && tl_r = tl_f
                  && r_r.Result.faults = r_f.Result.faults)
                [ Fault.none; Gen.fault_spec ])
            [ 1; 7; 4096 ])
        (policies config ~ndisks))

(* [Fastpath.replay] itself, with no fallback to the reference body:
   it raises on a configuration it cannot replay. *)
let fast_direct policy trace =
  Fastpath.replay ~config:Config.default ~mode:`Open ~fault:None
    ~timeline:None ~obs:None policy (Stream.of_trace trace)

(* Every policy shape replays on the fast core (no fallback) and
   matches the reference body. *)
let check_fast_direct policies =
  let trace = Gen.sample_trace () in
  List.iter
    (fun (name, mk) ->
      let r_ref =
        Engine.run_stream ~core:`Reference (mk ()) (Stream.of_trace trace)
      in
      Alcotest.(check bool) (name ^ " replays on the fast core") true
        (fast_direct (mk ()) trace = r_ref))
    (policies Config.default ~ndisks:(Trace.ndisks trace))

(* The Hooked + directives shapes, which [Fastpath.supported] used to
   reject: they now replay on the fast core. *)
let test_unsupported_shape_falls_back () =
  check_fast_direct hooked_directive_policies

let test_supported_shapes () =
  Alcotest.(check bool) "FCFS supported" true
    (Fastpath.supported ~config:Config.default);
  check_fast_direct builtin_policies

(* --- Experiment level: all seven schemes, both cores, 1 vs 4 domains --- *)

let test_experiment_core_equiv () =
  let trace = Gen.busy_trace ~think:0.4 ~n:60 ~ndisks:4 () in
  let results core domains =
    Pool.map ~domains
      (fun batch ->
        Experiment.replay_all
          ~setup:(Experiment.make_setup ~core ~batch ())
          (fun () -> Stream.of_trace ~batch trace))
      [ 1; 7 ]
  in
  let reference = results `Reference 1 in
  List.iter
    (fun fast ->
      List.iter2
        (fun per_batch_ref per_batch_fast ->
          List.iter2
            (fun (s, r_ref) (s', r_fast) ->
              Alcotest.(check string) "same scheme order" (Scheme.name s)
                (Scheme.name s');
              Alcotest.(check bool)
                (Scheme.name s ^ ": fast core byte-identical")
                true (r_ref = r_fast))
            per_batch_ref per_batch_fast)
        reference fast)
    [ results `Fast 1; results `Fast 4 ]

(* --- Telemetry histograms: the fast core feeds the same streams --- *)

let test_histograms_equal () =
  let trace = Gen.busy_trace ~think:0.02 ~n:200 ~ndisks:4 () in
  let capture core =
    let t = Telemetry.global in
    Telemetry.reset t;
    Telemetry.set_histograms t true;
    Fun.protect
      ~finally:(fun () ->
        Telemetry.set_histograms t false;
        Telemetry.reset t)
      (fun () ->
        ignore
          (Engine.run_stream ~core (Policy.tpm Config.default)
             (Stream.of_trace trace));
        Telemetry.histograms t)
  in
  let h_ref = capture `Reference and h_fast = capture `Fast in
  Alcotest.(check bool) "histograms present" true (h_ref <> []);
  Alcotest.(check bool) "identical histograms" true (h_ref = h_fast)

(* --- Allocation regression: the zero-allocation claim --- *)

let words_per_event core policy trace =
  let replay () =
    ignore (Engine.run_stream ~core policy (Stream.of_trace trace))
  in
  replay ();
  (* warm: SoA memoization, minor heap shape *)
  let runs = 3 in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    replay ()
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0)
  /. float_of_int (runs * Array.length (Trace.events trace))

let test_allocation_regression () =
  let trace = Gen.busy_trace ~think:0.02 ~n:20_000 ~ndisks:4 () in
  (* Non-hooked policies: a handful of words per *chunk*
     (stream bookkeeping), so well under one word per event. *)
  List.iter
    (fun (name, policy) ->
      let w = words_per_event `Fast policy trace in
      Alcotest.(check bool)
        (Printf.sprintf "%s allocates ~0/event (got %.3f)" name w)
        true (w < 1.0))
    [
      ("base", Policy.base);
      ("tpm", Policy.tpm Config.default);
      ("cm_drpm", Policy.cm_drpm);
    ];
  (* Hooked policies cross a closure boundary per served request, which
     boxes the float arguments: bounded, but not zero.  The reference
     core's per-event record decoding sits far above both. *)
  let w_hooked =
    words_per_event `Fast (Policy.drpm Config.default ~ndisks:4) trace
  in
  Alcotest.(check bool)
    (Printf.sprintf "drpm (hooked) bounded (got %.3f)" w_hooked)
    true
    (w_hooked < 24.0)

(* --- SoA chunk representation: lossless round-trips --- *)

let test_chunk_roundtrip () =
  let events = Array.of_list Gen.sample_events in
  let c = Chunk.of_events events in
  Alcotest.(check int) "length" (Array.length events) (Chunk.length c);
  Alcotest.(check bool) "events decode identically" true
    (Chunk.to_events c = events);
  (* Random traces too: every generated shape survives the encoding. *)
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:50 ~name:"chunk round-trip (random)"
       Gen.gen_trace (fun trace ->
         let events = Trace.events trace in
         Array.length events = 0
         || Chunk.to_events (Chunk.of_events events) = events))

let test_chunk_accessors () =
  let c = Chunk.create 4 in
  Alcotest.(check int) "fresh chunk empty" 0 (Chunk.length c);
  Chunk.push c (Gen.io ~think:0.5 ~disk:2 ~block:7 ~bytes:1024 ());
  Alcotest.(check int) "one event" 1 (Chunk.length c);
  Alcotest.(check (float 0.0)) "think" 0.5 (Chunk.think c 0);
  Alcotest.(check int) "tag" Chunk.tag_read (Chunk.tag c 0);
  Alcotest.(check int) "disk" 2 (Chunk.disk c 0);
  Alcotest.(check int) "block" 7 (Chunk.block c 0);
  Alcotest.(check int) "bytes" 1024 (Chunk.bytes c 0);
  Chunk.push c
    (Request.Pm { think = 0.1; directive = Request.Set_rpm { level = 3; disk = 1 } });
  Alcotest.(check int) "set_rpm tag" Chunk.tag_set_rpm (Chunk.tag c 1);
  Alcotest.(check int) "set_rpm level in block column" 3 (Chunk.block c 1);
  Alcotest.(check int) "set_rpm bytes zeroed" 0 (Chunk.bytes c 1);
  Alcotest.(check bool) "io tag classified" true (Chunk.is_io_tag Chunk.tag_write);
  Alcotest.(check bool) "pm tag classified" false
    (Chunk.is_io_tag Chunk.tag_spin_down);
  Chunk.clear c;
  Alcotest.(check int) "cleared" 0 (Chunk.length c);
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Trace.Stream.Chunk.get: index out of bounds") (fun () ->
      ignore (Chunk.get c 0))

(* next_soa must agree with next (same events, same cursor), and latch
   tail_think on exhaustion exactly like the record pull. *)
let drain_soa s =
  let acc = ref [] in
  let rec loop () =
    match Stream.next_soa s with
    | None -> ()
    | Some c ->
        acc := Chunk.to_events c :: !acc;
        loop ()
  in
  loop ();
  Array.concat (List.rev !acc)

let test_next_soa_matches_next () =
  let t = Gen.sample_trace () in
  List.iter
    (fun batch ->
      let via_soa = drain_soa (Stream.of_trace ~batch t) in
      Alcotest.(check bool) "same events as the record pull" true
        (via_soa = Trace.events t);
      let s = Stream.of_trace ~batch t in
      ignore (drain_soa s);
      Alcotest.(check (float 1e-9)) "tail latched after exhaustion" 0.25
        (Stream.tail_think s);
      Alcotest.(check bool) "exhaustion latched" true (Stream.next_soa s = None))
    [ 1; 3; 4096 ]

(* The of_file parser fills SoA chunks directly; they must decode to the
   same events the eager whole-file loader produces. *)
let test_of_file_soa_matches_load () =
  let t = Gen.sample_trace () in
  let path = Filename.temp_file "dpm_fastpath" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save t path;
      let eager = Trace.load path in
      List.iter
        (fun batch ->
          let via_soa = drain_soa (Stream.of_file ~batch path) in
          Alcotest.(check bool)
            (Printf.sprintf "batch %d: SoA parse ≡ eager load" batch)
            true
            (via_soa = Trace.events eager))
        [ 1; 3; 4096 ])

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "fastpath.differential",
      [
        q qcheck_core_equiv;
        Alcotest.test_case "unsupported shape falls back" `Quick
          test_unsupported_shape_falls_back;
        Alcotest.test_case "built-in policies supported" `Quick
          test_supported_shapes;
        Alcotest.test_case "experiment run (1 vs 4 domains)" `Slow
          test_experiment_core_equiv;
        Alcotest.test_case "telemetry histograms equal" `Quick
          test_histograms_equal;
      ] );
    ( "fastpath.allocation",
      [
        Alcotest.test_case "zero allocation per event" `Quick
          test_allocation_regression;
      ] );
    ( "fastpath.soa",
      [
        Alcotest.test_case "chunk round-trip" `Quick test_chunk_roundtrip;
        Alcotest.test_case "chunk accessors" `Quick test_chunk_accessors;
        Alcotest.test_case "next_soa ≡ next" `Quick test_next_soa_matches_next;
        Alcotest.test_case "of_file SoA ≡ eager load" `Quick
          test_of_file_soa_matches_load;
      ] );
  ]
