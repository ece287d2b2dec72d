(* Tests for Dpm_trace.Openloop: the descriptor string round-trips, the
   arrival plan is deterministic and well-formed, and — the PR's S4
   property — the k-way merge preserves every tenant's event order and
   the total event count at batch sizes {1, 7, 4096}, with the merged
   think deltas reconstructing each tenant's virtual arrival times. *)

module Openloop = Dpm_trace.Openloop
module Trace = Dpm_trace.Trace
module Stream = Dpm_trace.Trace.Stream
module Request = Dpm_trace.Request
module Run = Dpm_core.Run
module Scheme = Dpm_core.Scheme

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* --- descriptor strings --- *)

let test_string_round_trip () =
  List.iter
    (fun (descr, sources) ->
      let t, srcs =
        match Openloop.of_string descr with
        | Ok r -> r
        | Error m -> Alcotest.failf "of_string %S: %s" descr m
      in
      check (Alcotest.list Alcotest.string) "sources" sources srcs;
      check Alcotest.string "canonical form" descr
        (Openloop.to_string ~sources:srcs t);
      (* A second trip through the canonical form is a fixpoint. *)
      match Openloop.of_string (Openloop.to_string ~sources:srcs t) with
      | Ok (t2, s2) ->
          checkb "fixpoint descriptor" true (t = t2 && srcs = s2)
      | Error m -> Alcotest.failf "re-parse: %s" m)
    [
      ("rate=0.05,jobs=6,zipf=1,seed=3,sources=swim:mgrid", [ "swim"; "mgrid" ]);
      ("rate=2,burst=4,jobs=9,zipf=0.5,seed=11", []);
      ("rate=1,jobs=4,zipf=1,seed=0,sources=galgel", [ "galgel" ]);
    ]

let test_string_errors () =
  List.iter
    (fun descr ->
      match Openloop.of_string descr with
      | Ok _ -> Alcotest.failf "of_string %S should fail" descr
      | Error _ -> ())
    [
      "jobs=4";               (* missing rate *)
      "rate=1,tempo=3";       (* unknown key *)
      "rate=zero";            (* not a number *)
      "rate=1 jobs=2";        (* not key=value *)
      "rate=-1";              (* make validation *)
      "rate=1,jobs=0";
      "rate=nan";
      "rate=1,zipf=nan";
    ]

(* --- arrival plans --- *)

let test_plan_shape () =
  let t = Openloop.make ~arrival:(Openloop.Poisson 0.5) ~jobs:40 ~seed:9 () in
  let plan = Openloop.plan t ~nsources:3 in
  check Alcotest.int "one entry per job" 40 (Array.length plan);
  Array.iteri
    (fun i (start, k) ->
      checkb "source index in range" true (k >= 0 && k < 3);
      checkb "start finite and nonnegative" true
        (Float.is_finite start && start >= 0.0);
      if i > 0 then
        checkb "arrivals nondecreasing" true (fst plan.(i - 1) <= start))
    plan;
  (* Same descriptor, same plan: the RNG is split from the seed alone. *)
  checkb "deterministic" true (plan = Openloop.plan t ~nsources:3)

let test_plan_bursty () =
  let t =
    Openloop.make
      ~arrival:(Openloop.Bursty { rate = 1.0; burst = 4 })
      ~jobs:10 ~seed:2 ()
  in
  let plan = Openloop.plan t ~nsources:2 in
  check Alcotest.int "job count" 10 (Array.length plan);
  (* Bursty arrivals come in clusters that share one arrival instant. *)
  let distinct =
    Array.to_list plan |> List.map fst |> List.sort_uniq compare
    |> List.length
  in
  checkb "fewer distinct instants than jobs" true (distinct < 10)

let test_plan_source_pick_uses_zipf () =
  (* With extreme skew essentially every job lands on source 0. *)
  let t = Openloop.make ~zipf:16.0 ~jobs:64 ~seed:5 () in
  let plan = Openloop.plan t ~nsources:4 in
  let on0 =
    Array.fold_left (fun n (_, k) -> if k = 0 then n + 1 else n) 0 plan
  in
  checkb "skew concentrates on the hottest source" true (on0 >= 60)

(* --- merge: tenant order and count preservation --- *)

(* Tenants are identified by disjoint block ranges (blocks do not
   constrain the stream's disk validation). *)
let tenant_block j i = (j * 10_000) + i

let tenant_trace ~ndisks j events =
  Trace.make ~program:(Printf.sprintf "tenant%d" j) ~ndisks
    (List.mapi
       (fun i (think, disk) ->
         Request.Io
           {
             Request.think;
             disk;
             block = tenant_block j i;
             bytes = 512;
             kind = (if i mod 2 = 0 then Request.Read else Request.Write);
             nest = j;
             iter = i;
           })
       events)

let drain stream =
  let out = ref [] in
  Stream.iter (fun e -> out := e :: !out) stream;
  List.rev !out

let io_of = function
  | Request.Io io -> io
  | Request.Pm _ -> Alcotest.fail "unexpected PM event"

(* Check one merged stream against its tenants: per-tenant subsequence
   identity (everything but think), total count, nonnegative deltas, and
   virtual-time reconstruction: the merged running clock at tenant j's
   i-th event equals start_j + the tenant's own running clock. *)
let check_merge ~tenants ~merged =
  let merged = List.map io_of merged in
  List.iter
    (fun (io : Request.io) -> checkb "delta >= 0" true (io.Request.think >= 0.0))
    merged;
  check Alcotest.int "total count"
    (List.fold_left (fun n (_, evs) -> n + List.length evs) 0 tenants)
    (List.length merged);
  let clock = ref 0.0 in
  let arrivals =
    List.map
      (fun (io : Request.io) ->
        clock := !clock +. io.Request.think;
        (io, !clock))
      merged
  in
  List.iteri
    (fun j (start, evs) ->
      let mine =
        List.filter
          (fun ((io : Request.io), _) -> io.Request.block / 10_000 = j)
          arrivals
      in
      check Alcotest.int "tenant count" (List.length evs) (List.length mine);
      let vclock = ref start in
      List.iter2
        (fun (think, disk) ((io : Request.io), at) ->
          vclock := !vclock +. think;
          check Alcotest.int "disk" disk io.Request.disk;
          checkb "in-order blocks" true
            (io.Request.block = tenant_block j io.Request.iter);
          checkb "virtual arrival reconstructed" true
            (Float.abs (at -. !vclock) <= 1e-9 *. Float.max 1.0 !vclock))
        evs mine)
    tenants

let merge_tenants ~batch tenants =
  Openloop.merge ~batch
    (List.map
       (fun (j, (start, evs)) ->
         (start, Stream.of_trace (tenant_trace ~ndisks:4 j evs)))
       (List.mapi (fun j t -> (j, t)) tenants))

let test_merge_hand_built () =
  List.iter
    (fun batch ->
      let tenants =
        [
          (0.0, [ (0.5, 0); (1.0, 1); (0.25, 2) ]);
          (0.4, [ (0.1, 3); (0.1, 0); (2.0, 1) ]);
          (5.0, [ (0.0, 2) ]);
        ]
      in
      let merged = drain (merge_tenants ~batch tenants) in
      check_merge ~tenants ~merged)
    [ 1; 7; 4096 ]

let test_merge_ties_prefer_lowest_tenant () =
  (* Identical starts and all-zero thinks: every event is simultaneous,
     so the merge must drain tenant 0 entirely before tenant 1. *)
  let tenants = [ (0.0, [ (0.0, 0); (0.0, 1) ]); (0.0, [ (0.0, 2) ]) ] in
  let merged = List.map io_of (drain (merge_tenants ~batch:1 tenants)) in
  check
    (Alcotest.list Alcotest.int)
    "tenant ids in tie order" [ 0; 0; 1 ]
    (List.map (fun (io : Request.io) -> io.Request.block / 10_000) merged)

let test_merge_empty_tenant () =
  let tenants = [ (0.0, [ (1.0, 0) ]); (2.0, []) ] in
  let merged = drain (merge_tenants ~batch:1 tenants) in
  check Alcotest.int "only the non-empty tenant's event" 1
    (List.length merged);
  check_merge ~tenants ~merged

let qcheck_merge_preserves_order =
  let gen =
    QCheck2.Gen.(
      let tenant =
        pair (float_bound_exclusive 10.0)
          (list_size (int_range 0 30)
             (pair (float_bound_exclusive 2.0) (int_range 0 3)))
      in
      pair (oneofl [ 1; 7; 4096 ]) (list_size (int_range 1 4) tenant))
  in
  QCheck2.Test.make ~count:60
    ~name:"openloop merge preserves per-tenant order, count and clocks" gen
    (fun (batch, tenants) ->
      let merged = drain (merge_tenants ~batch tenants) in
      check_merge ~tenants ~merged;
      true)

(* --- end-to-end: batch size never changes the replayed numbers --- *)

let test_replay_batch_identity () =
  let exec batch =
    let load =
      Openloop.make ~arrival:(Openloop.Poisson 0.1) ~jobs:2 ~seed:4 ()
    in
    let spec =
      Run.spec ~schemes:[ Scheme.Base; Scheme.Tpm ] ~batch
        (Run.Open_loop { load; sources = [ "swim" ] })
    in
    match Run.exec_all spec with
    | Ok results ->
        List.map
          (fun (s, (r : Dpm_sim.Result.t)) ->
            Printf.sprintf "%s %.17g %.17g" (Scheme.name s)
              r.Dpm_sim.Result.energy r.Dpm_sim.Result.exec_time)
          results
    | Error e -> Alcotest.failf "exec: %s" (Run.error_message e)
  in
  check (Alcotest.list Alcotest.string) "batch 1 = batch 4096" (exec 1)
    (exec 4096)

let test_spec_json_round_trip () =
  let load =
    Openloop.make
      ~arrival:(Openloop.Bursty { rate = 0.25; burst = 3 })
      ~jobs:5 ~zipf:1.5 ~seed:7 ()
  in
  let spec =
    Run.spec
      ~schemes:[ Scheme.Base ]
      (Run.Open_loop { load; sources = [ "swim"; "mgrid" ] })
  in
  let j =
    match Run.to_json spec with
    | Ok j -> j
    | Error e -> Alcotest.failf "to_json: %s" (Run.error_message e)
  in
  let spec2 =
    match Run.of_json j with
    | Ok s -> s
    | Error e -> Alcotest.failf "of_json: %s" (Run.error_message e)
  in
  let j2 =
    match Run.to_json spec2 with
    | Ok j2 -> j2
    | Error e -> Alcotest.failf "re-to_json: %s" (Run.error_message e)
  in
  check Alcotest.string "spec JSON fixpoint"
    (Dpm_util.Json.to_string j)
    (Dpm_util.Json.to_string j2)

let suite =
  [
    ( "openloop",
      [
        Alcotest.test_case "descriptor round-trip" `Quick
          test_string_round_trip;
        Alcotest.test_case "descriptor errors" `Quick test_string_errors;
        Alcotest.test_case "plan shape and determinism" `Quick test_plan_shape;
        Alcotest.test_case "bursty plan clusters" `Quick test_plan_bursty;
        Alcotest.test_case "zipf skew" `Quick test_plan_source_pick_uses_zipf;
        Alcotest.test_case "merge hand-built batches {1,7,4096}" `Quick
          test_merge_hand_built;
        Alcotest.test_case "merge tie order" `Quick
          test_merge_ties_prefer_lowest_tenant;
        Alcotest.test_case "merge empty tenant" `Quick test_merge_empty_tenant;
        QCheck_alcotest.to_alcotest qcheck_merge_preserves_order;
        Alcotest.test_case "replay batch identity" `Slow
          test_replay_batch_identity;
        Alcotest.test_case "open-loop spec JSON round-trip" `Quick
          test_spec_json_round_trip;
      ] );
  ]
