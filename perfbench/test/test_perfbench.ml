(* The benchmark's own arithmetic and schedules. *)

open Perfbench

let floats = Alcotest.(array (float 0.0))

(* --- seeded job lists and arrivals --- *)

let rounds_are_seeded_permutations () =
  let n = Array.length Jobs.suite_grid in
  let r = Jobs.round ~seed:3 ~n 0 in
  Alcotest.(check (array int)) "same seed, same round" r (Jobs.round ~seed:3 ~n 0);
  Alcotest.(check (array int))
    "a permutation of the catalogue" (Array.init n Fun.id)
    (Stats.sorted (Array.map float r) |> Array.map int_of_float);
  Alcotest.(check bool)
    "another seed, another order" false
    (r = Jobs.round ~seed:4 ~n 0);
  Alcotest.(check bool)
    "another round, another order" false
    (r = Jobs.round ~seed:3 ~n 1)

let arrivals_are_seeded () =
  let due = Jobs.arrivals ~seed:5 ~rate:8.0 ~seconds:30.0 ~cycle:20 in
  Alcotest.check floats "same seed, same schedule" due
    (Jobs.arrivals ~seed:5 ~rate:8.0 ~seconds:30.0 ~cycle:20);
  Alcotest.(check int) "rate x seconds jobs, whole cycles" 240 (Array.length due);
  Alcotest.(check bool) "sorted" true (Stats.sorted due = due);
  Alcotest.(check bool)
    "within the window" true
    (Array.for_all (fun t -> t >= 0.0 && t < 30.0) due);
  Alcotest.(check bool)
    "another seed, another schedule" false
    (due = Jobs.arrivals ~seed:6 ~rate:8.0 ~seconds:30.0 ~cycle:20)

let serve_order_keeps_the_mix () =
  let count = 3 * Jobs.serve_cycle_len in
  let order = Jobs.serve_order ~seed:9 ~count in
  let keys a = Array.map (fun (j : Jobs.job) -> j.key) a |> Array.to_list |> List.sort compare in
  Alcotest.(check (list string))
    "same seed, same order"
    (Array.to_list (Array.map (fun (j : Jobs.job) -> j.key) order))
    (Array.to_list
       (Array.map (fun (j : Jobs.job) -> j.key) (Jobs.serve_order ~seed:9 ~count)));
  for c = 0 to 2 do
    Alcotest.(check (list string))
      (Printf.sprintf "cycle %d is a shuffle of the fixed cycle" c)
      (keys (Jobs.serve_cycle c))
      (keys (Array.sub order (c * Jobs.serve_cycle_len) Jobs.serve_cycle_len))
  done

(* --- open-loop accounting --- *)

let record ~due ~picked ~sent ~finished =
  {
    Serve.key = "k";
    due;
    picked;
    ex =
      {
        Wire.sent;
        accepted = sent;
        finished;
        frames = 2;
        bytes = 10;
        outcome = Error "unused";
        rejected = false;
      };
  }

let latency_from_due_time () =
  (* Both connections were busy: the job waited in the client. *)
  let r = record ~due:1.0 ~picked:1.5 ~sent:1.6 ~finished:2.0 in
  Alcotest.(check (float 1e-12)) "latency counts the wait" 1.0 (Serve.latency r);
  Alcotest.(check (float 1e-12)) "generator late after the pick" 0.1 (Serve.lateness r);
  (* A free connection waited for the due time and woke late. *)
  let r = record ~due:1.0 ~picked:0.5 ~sent:1.02 ~finished:1.5 in
  Alcotest.(check (float 1e-12)) "latency" 0.5 (Serve.latency r);
  Alcotest.(check (float 1e-12)) "generator late after the due time" 0.02 (Serve.lateness r)

(* --- percentiles --- *)

let percentile_rule () =
  let a n = Array.init n (fun i -> float (i + 1)) in
  (match Stats.percentile 95 (a 199) with
  | Ok _ -> Alcotest.fail "p95 of 199 samples must be refused"
  | Error m ->
      Alcotest.(check bool) "message names the sample count" true
        (String.length m > 0 && Option.is_some (String.index_opt m '1')
        && List.mem "199" (String.split_on_char ' ' m)));
  Alcotest.(check (result (float 0.0) string))
    "p95 of 200 samples is the 190th" (Ok 190.0) (Stats.percentile 95 (a 200));
  Alcotest.(check bool) "p90 needs 100" true (Result.is_error (Stats.percentile 90 (a 99)));
  Alcotest.(check (result (float 0.0) string))
    "p90 of 100" (Ok 90.0) (Stats.percentile 90 (a 100));
  Alcotest.(check (result (float 0.0) string))
    "the rule can be waived" (Ok 18.0)
    (Stats.percentile ~min_beyond:0 95 (a 18))

let quartiles_match_python () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  Alcotest.check floats "1..10" [| 2.75; 5.5; 8.25 |]
    (Stats.quartiles (Array.init 10 (fun i -> float (i + 1))));
  Alcotest.(check (float 1e-12)) "median of even count" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

(* --- spans --- *)

let self_time () =
  let t = Spans.create () in
  let parent = Spans.add t ~job:0 "p" ~start:0.0 ~stop:10.0 in
  let c1 = Spans.add t ~job:0 ~parent "c1" ~start:1.0 ~stop:3.0 in
  ignore (Spans.add t ~job:0 ~parent "c2" ~start:2.0 ~stop:5.0);
  ignore (Spans.add t ~job:0 ~parent "c3" ~start:8.0 ~stop:12.0);
  ignore (Spans.add t ~job:0 ~parent:c1 "g" ~start:1.0 ~stop:2.0);
  let self name =
    List.find (fun ((s : Spans.span), _) -> s.name = name) (Spans.self_times (Spans.all t))
    |> snd
  in
  Alcotest.(check (float 1e-12)) "overlapping children count once, clipped" 4.0 (self "p");
  Alcotest.(check (float 1e-12)) "nested child" 1.0 (self "c1");
  Alcotest.(check (float 1e-12)) "leaf" 3.0 (self "c2");
  let t = Spans.create () in
  let x =
    Spans.with_span t ~job:1 "outer" (fun () ->
        Spans.with_span t ~job:1 "inner" (fun () -> 42))
  in
  Alcotest.(check int) "with_span returns the result" 42 x;
  match Spans.all t with
  | [ inner; outer ] ->
      Alcotest.(check int) "inner's parent is outer" outer.id inner.parent;
      Alcotest.(check int) "outer is a root" (-1) outer.parent
  | _ -> Alcotest.fail "expected two spans"

(* --- probe normalization --- *)

let normalization () =
  let r = Probe.ref_s in
  Alcotest.(check (float 1e-12)) "at reference speed" 1.0
    (Probe.normalize ~before:r ~after:r 1.0);
  Alcotest.(check (float 1e-12)) "half speed halves" 0.5
    (Probe.normalize ~before:(2.0 *. r) ~after:(2.0 *. r) 1.0);
  Alcotest.(check (float 1e-12)) "mean of the two samples" 0.5
    (Probe.normalize ~before:r ~after:(3.0 *. r) 1.0);
  let (), norm, host, _, _ = Probe.timed ~before:r (fun () -> ()) in
  Alcotest.(check bool) "an empty interval is about zero" true
    (norm >= 0.0 && host >= 0.0 && host < 0.01)

let () =
  Alcotest.run "perfbench"
    [
      ( "schedules",
        [
          Alcotest.test_case "rounds" `Quick rounds_are_seeded_permutations;
          Alcotest.test_case "arrivals" `Quick arrivals_are_seeded;
          Alcotest.test_case "serve order" `Quick serve_order_keeps_the_mix;
        ] );
      ("open loop", [ Alcotest.test_case "latency" `Quick latency_from_due_time ]);
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "quartiles" `Quick quartiles_match_python;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick self_time ]);
      ("probe", [ Alcotest.test_case "normalization" `Quick normalization ]);
    ]
