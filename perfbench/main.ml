(* The repository benchmark.  See perfbench/README.md.

     main.exe --workload suite-grid|trace-replay|serve-mix --seed N
              --seconds S --trace 0|1
     main.exe --noise SECONDS
     main.exe --write-digests      (regenerate data/digests.txt)
     main.exe --write-traces       (regenerate data/*.trc)

   Run from the repository root; perfbench/run.sh builds and runs it. *)

open Perfbench

type args = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable noise : float option;
  mutable write_digests : bool;
  mutable write_traces : bool;
  mutable dpmsim : string;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload suite-grid|trace-replay|serve-mix --seed N \
     --seconds S --trace 0|1\n\
    \       main.exe --noise SECONDS | --write-digests | --write-traces";
  exit 2

let parse argv =
  let a =
    {
      workload = None;
      seed = 1;
      seconds = 20.0;
      trace = false;
      noise = None;
      write_digests = false;
      write_traces = false;
      dpmsim = "_build/default/bin/dpmsim.exe";
    }
  in
  let rec go = function
    | [] -> a
    | "--workload" :: w :: rest ->
        a.workload <- Some w;
        go rest
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n ->
            a.seed <- n;
            go rest
        | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some s when s > 0.0 ->
            a.seconds <- s;
            go rest
        | _ -> usage ())
    | "--trace" :: t :: rest ->
        (match t with
        | "0" -> a.trace <- false
        | "1" -> a.trace <- true
        | _ -> usage ());
        go rest
    | "--noise" :: s :: rest -> (
        match float_of_string_opt s with
        | Some s when s > 0.0 ->
            a.noise <- Some s;
            go rest
        | _ -> usage ())
    | "--write-digests" :: rest ->
        a.write_digests <- true;
        go rest
    | "--write-traces" :: rest ->
        a.write_traces <- true;
        go rest
    | "--dpmsim" :: p :: rest ->
        a.dpmsim <- p;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv))

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

(* --- result line ------------------------------------------------------ *)

let emit ~attempted ~failed ~errors ~checks metrics =
  List.iter (fun m -> prerr_endline ("perfbench: FAILED " ^ m)) errors;
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-28s %14.6g %s\n" name v unit)
    metrics;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let correct = failed = 0 && checks && finite in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
             (if Float.is_finite v then v else 0.0)
             unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

(* --- set-up ----------------------------------------------------------- *)

let setups = 3

(* Times [f] [setups] times as {!Probe.timed} intervals and returns the
   median normalized time with the last result. *)
let timed_setup log f =
  let rec go k acc last =
    if k = 0 then (Stats.median (Array.of_list acc), Option.get last)
    else begin
      let before = Probe.sample_into log in
      let x, norm, _, after, inside = Probe.timed ~before (fun () -> f k) in
      log.Probe.samples <- (after :: inside) @ log.Probe.samples;
      go (k - 1) (norm :: acc) (Some x)
    end
  in
  go setups [] None

let require_inputs () =
  List.iter
    (fun path ->
      if not (Sys.file_exists path) then
        die "missing %s: run from the repository root" path)
    (Jobs.digests_path :: List.map Jobs.trace_path Jobs.benches)

(* --- untraced workloads ----------------------------------------------- *)

let batch a w =
  let log = Probe.log () in
  let catalogue, warmup, per_request =
    match w with
    | `Suite_grid -> (Jobs.suite_grid, Jobs.warmup `Suite_grid, false)
    | `Trace_replay -> (Jobs.trace_replay, Jobs.warmup `Trace_replay, true)
  in
  let setup_s, (digests, warm) =
    timed_setup log (fun _ ->
        require_inputs ();
        let digests = Digest.load Jobs.digests_path in
        (digests, Exec.checked digests warmup))
  in
  let o = Batch.run ~log ~digests ~seed:a.seed ~seconds:a.seconds catalogue in
  let throughput, p50, p95 = Batch.figures ~per_request o in
  let raw_throughput, _, _ = Batch.figures ~raw:true ~per_request o in
  Printf.printf "host-time throughput (not normalized) %.6g/s\n" raw_throughput;
  let warm_errors = match warm with Ok _ -> [] | Error m -> [ "warm-up " ^ m ] in
  Printf.printf "noise %s\n" (Probe.summary_json (Probe.summarize log));
  emit ~attempted:o.attempted ~failed:o.failed
    ~errors:(warm_errors @ o.errors) ~checks:(warm_errors = [])
    [
      ("setup_s", setup_s, "s");
      ("throughput_per_s", throughput, "1/s");
      ("latency_p50_s", p50, "s");
      ("latency_p95_s", p95, "s");
      ( "peak_rss_mb",
        Option.value ~default:nan (Proc.peak_rss_mb "self"),
        "MB" );
    ]

let serve_mix a =
  (* No mid-interval samples here: the client blocks in socket calls,
     and a timer signal could interrupt them. *)
  Probe.disable_ticks ();
  let log = Probe.log () in
  Proc.ensure_scratch ();
  if not (Sys.file_exists a.dpmsim) then die "missing daemon binary %s" a.dpmsim;
  let due = Jobs.arrivals ~seed:a.seed ~rate:Serve.rate ~seconds:a.seconds
      ~cycle:Jobs.serve_cycle_len
  in
  let count = Array.length due in
  (match Stats.percentile 95 (Array.make count 0.0) with
  | Ok _ -> ()
  | Error m ->
      die "serve-mix at %.1f jobs/s over %.0f s: %s; raise --seconds" Serve.rate
        a.seconds m);
  let order = Jobs.serve_order ~seed:a.seed ~count in
  let previous = ref None in
  let setup_s, (digests, frames, client) =
    timed_setup log (fun k ->
        Option.iter (fun s -> ignore (Serve.stop s)) !previous;
        require_inputs ();
        let digests = Digest.load Jobs.digests_path in
        let frames = Serve.frames () in
        let socket =
          Printf.sprintf "%s/serve-%d-%d.sock" Proc.scratch_dir (Unix.getpid ()) k
        in
        let s = Serve.start ~exe:a.dpmsim ~socket ~digests ~frames in
        previous := Some s;
        (digests, frames, s))
  in
  ignore (Probe.sample_into log);
  let start, records, probes = Serve.drive client ~frames ~due ~order in
  log.Probe.samples <- List.map snd (Array.to_list probes) @ log.Probe.samples;
  let peak = Serve.stop client in
  let errors =
    Array.to_list records
    |> List.filter_map (fun (r : Serve.job_record) ->
           match Serve.check_exchange digests r.key r.ex with
           | Ok () -> None
           | Error m -> Some m)
  in
  let latencies = Array.map (Serve.normalized_latency probes) records in
  let pct ?(of_ = latencies) p =
    match Stats.percentile p of_ with Ok v -> v | Error m -> failwith m
  in
  let host = Array.map Serve.latency records in
  (* Per-job record, for telling queueing from service time afterwards. *)
  Out_channel.with_open_text
    (Printf.sprintf "%s/serve-mix-%d.jobs" Proc.scratch_dir a.seed)
    (fun oc ->
      Array.iteri
        (fun i (r : Serve.job_record) ->
          Printf.fprintf oc "%s due=%.6f latency=%.6f host=%.6f exec=%.6f\n"
            r.key (r.due -. start) latencies.(i) host.(i)
            (r.ex.finished -. r.ex.accepted))
        records);
  Printf.printf
    "host-time latency (not normalized) p50 %.6g s p95 %.6g s; %d idle-time \
     probe samples\n"
    (pct ~of_:host 50) (pct ~of_:host 95) (Array.length probes);
  let last =
    Array.fold_left (fun m (r : Serve.job_record) -> Float.max m r.ex.finished)
      start records
  in
  Printf.printf "noise %s\n" (Probe.summary_json (Probe.summarize log));
  Printf.printf
    "serve-mix: %d jobs at %.2f/s offered; p95 over %d latency samples, %d \
     beyond it\n"
    count Serve.rate count
    (count - (((95 * count) + 99) / 100));
  emit ~attempted:count ~failed:(List.length errors) ~errors ~checks:true
    [
      ("setup_s", setup_s, "s");
      ("throughput_per_s", float count /. (last -. start), "1/s");
      ("latency_p50_s", Serve.kind_median records latencies, "s");
      ("latency_p95_s", pct 95, "s");
      ("peak_rss_mb", Option.value ~default:nan peak, "MB");
    ]

(* --- maintenance modes ------------------------------------------------ *)

let write_digests () =
  let jobs =
    Array.concat
      [
        Jobs.suite_grid;
        Jobs.trace_replay;
        Jobs.serve_mix;
        [| Jobs.warmup `Suite_grid; Jobs.warmup `Trace_replay; Jobs.warmup `Serve_mix |];
      ]
  in
  let seen = Hashtbl.create 64 in
  let entries =
    Array.to_list jobs
    |> List.filter_map (fun (j : Jobs.job) ->
           if Hashtbl.mem seen j.key then None
           else begin
             Hashtbl.add seen j.key ();
             match Exec.run j with
             | Ok results -> Some (j.key, Digest.of_results results)
             | Error e ->
                 die "%s: %s" j.key (Dpm_core.Run.error_message e)
           end)
  in
  Digest.save Jobs.digests_path entries;
  Printf.printf "wrote %d digests to %s\n" (List.length entries)
    Jobs.digests_path

let () =
  let a = parse Sys.argv in
  match a with
  | { noise = Some s; _ } -> Probe.profile s
  | { write_digests = true; _ } -> write_digests ()
  | { write_traces = true; _ } -> Inputs.write_traces ()
  | { workload = Some w; trace; _ } -> (
      let w =
        match w with
        | "suite-grid" -> `Suite_grid
        | "trace-replay" -> `Trace_replay
        | "serve-mix" -> `Serve_mix
        | _ -> die "unknown workload %S" w
      in
      match (w, trace) with
      | (`Suite_grid | `Trace_replay) as w, false -> batch a w
      | `Serve_mix, false -> serve_mix a
      | ((`Suite_grid | `Trace_replay) as w), true -> Traced.batch ~seed:a.seed w
      | `Serve_mix, true ->
          Serve_traced.run ~seed:a.seed ~seconds:a.seconds ~dpmsim:a.dpmsim)
  | _ -> usage ()
