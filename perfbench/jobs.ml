(* The three workloads' job catalogues and their seeded schedules.

   Each workload has a fixed catalogue of job kinds.  A batch run works
   through rounds, each a seeded permutation of the whole catalogue, so
   every seed runs the same mix and only the order changes; serve-mix
   sends fixed-composition cycles at seeded Poisson arrival times.  The
   program only ever sees the specs built here. *)

module Run = Dpm_core.Run
module Config = Dpm_sim.Config
module Pipeline = Dpm_compiler.Pipeline

type variant =
  | Plain
  | Stream  (** [stream=true]: per-scheme incremental file parse. *)
  | Metered  (** Timeline sinks and a power meter on every scheme. *)

type job = {
  key : string;  (** Names the simulated result; digests are keyed by it. *)
  workload : Run.workload;
  version : Pipeline.version;
  schemes : string list;  (** [[]] runs the paper's seven. *)
  sched : Config.sched;
  variant : variant;
}

let data_dir = "perfbench/data"
let trace_path bench = Printf.sprintf "%s/%s.trc" data_dir bench
let digests_path = data_dir ^ "/digests.txt"
let benches = [ "wupwise"; "swim"; "mgrid"; "applu"; "mesa"; "galgel" ]
let meter_resolution = 0.5

let spec ?core job =
  Run.spec
    ?scheme_names:(match job.schemes with [] -> None | l -> Some l)
    ~version:job.version
    ~sim:(Config.with_sched job.sched Config.default)
    ~stream:(job.variant = Stream) ?core job.workload

let plain ?(version = Pipeline.Orig) ?(schemes = []) ?(sched = Config.Fcfs)
    ?(variant = Plain) key workload =
  { key; workload; version; schemes; sched; variant }

(* --- suite-grid: the paper's Fig. 3 and Fig. 13 cells ----------------- *)

let suite_grid =
  List.concat_map
    (fun bench ->
      List.map
        (fun version ->
          plain ~version
            (Printf.sprintf "suite-grid/%s/%s" bench
               (Pipeline.version_name version))
            (Run.Benchmark bench))
        Pipeline.[ Orig; LF_DL; TL_DL ])
    benches
  |> Array.of_list

(* --- trace-replay: replay-side layers only ---------------------------- *)

let disciplines = Config.[| Fcfs; Sstf; Scan; Clook; Sstf_remap |]

(* One job in four metered, one in four streamed. *)
let variant_of i = match i mod 4 with 0 -> Metered | 2 -> Stream | _ -> Plain

let merge_tenants = [| 4; 5; 6; 8 |]

let merge_load tenants =
  match
    Dpm_trace.Openloop.of_string
      (Printf.sprintf "rate=0.05,jobs=%d,zipf=0.5,seed=%d" tenants tenants)
  with
  | Ok (load, _) -> load
  | Error m -> invalid_arg m

let trace_replay =
  let singles =
    List.init 12 (fun i ->
        let bench = List.nth benches (i / 2) in
        let sched = disciplines.(i mod 5) in
        plain ~sched ~variant:(variant_of i)
          (Printf.sprintf "trace/%s/%s" bench (Config.sched_name sched))
          (Run.Trace_file (trace_path bench)))
  in
  let merges =
    List.init (Array.length merge_tenants) (fun k ->
        let i = 12 + k in
        let tenants = merge_tenants.(k) in
        let sched = disciplines.(i mod 5) in
        plain ~sched ~variant:(variant_of i)
          (Printf.sprintf "merge/%d/%s" tenants (Config.sched_name sched))
          (Run.Open_loop
             {
               load = merge_load tenants;
               sources = List.map trace_path benches;
             }))
  in
  Array.of_list (singles @ merges)

(* --- serve-mix: small jobs through the daemon ------------------------- *)

let serve_benches = [| "swim"; "galgel"; "mesa"; "applu" |]

(* No compiler-managed schemes: a CM compile would make these jobs three
   times longer, and the queueing behind them would dominate the tail. *)
let bench_scheme_sets =
  [|
    [ "Base"; "TPM" ];
    [ "Base"; "DRPM"; "IDRPM" ];
    [ "Base"; "TPM"; "ITPM"; "DRPM" ];
    [ "Base"; "ITPM" ];
  |]

let trace_scheme_sets =
  [|
    [ "Base"; "TPM" ];
    [ "Base"; "DRPM"; "IDRPM"; "CMDRPM" ];
    [ "Base"; "ITPM"; "CMTPM" ];
  |]

let open_loop_schemes = [ "Base"; "TPM"; "DRPM" ]

let serve_bench b schemes =
  plain ~schemes
    (Printf.sprintf "serve/bench/%s/%s" b (String.concat "," schemes))
    (Run.Benchmark b)

let serve_trace ?(variant = Plain) b schemes =
  plain ~schemes ~variant
    (Printf.sprintf "serve/trace/%s/%s%s" b (String.concat "," schemes)
       (if variant = Metered then "/metered" else ""))
    (Run.Trace_file (trace_path b))

let serve_open_loop seed =
  let load =
    match
      Dpm_trace.Openloop.of_string
        (Printf.sprintf "rate=0.1,jobs=3,zipf=0,seed=%d" seed)
    with
    | Ok (load, _) -> load
    | Error m -> invalid_arg m
  in
  plain ~schemes:open_loop_schemes
    (Printf.sprintf "serve/open-loop/%d/%s" seed
       (String.concat "," open_loop_schemes))
    (Run.Open_loop
       { load; sources = List.map trace_path [ "swim"; "mesa"; "galgel" ] })

(* Cycle [c] of 20 jobs: one job per small benchmark (scheme sets
   rotating with [c], so four cycles cover all four sets), three jobs per
   trace, two 3-tenant open-loop jobs and two metered trace jobs.  Four
   jobs in five replay a trace, so the median falls among them, where the
   per-job costs of timelines, reports and the wire dominate. *)
let serve_cycle c =
  let benches =
    List.map
      (fun b -> serve_bench serve_benches.(b) bench_scheme_sets.((b + c) mod 4))
      [ 0; 1; 2; 3 ]
  in
  let traces =
    List.concat_map
      (fun name -> List.map (serve_trace name) (Array.to_list trace_scheme_sets))
      (Array.to_list serve_benches)
  in
  benches @ traces
  @ [
      serve_open_loop 1;
      serve_open_loop 2;
      serve_trace ~variant:Metered "galgel" [ "Base"; "CMDRPM" ];
      serve_trace ~variant:Metered "swim" [ "Base"; "TPM" ];
    ]
  |> Array.of_list

let serve_cycle_len = 20

(* Every distinct serve-mix job (four cycles cover the rotation). *)
let serve_mix =
  let seen = Hashtbl.create 64 in
  Array.to_list (Array.concat (List.init 4 serve_cycle))
  |> List.filter (fun j ->
         if Hashtbl.mem seen j.key then false
         else (
           Hashtbl.add seen j.key ();
           true))
  |> Array.of_list

(* The untimed warm-up job of each workload. *)
let warmup = function
  | `Suite_grid -> plain "suite-grid/mesa/TL+DL" (Run.Benchmark "mesa") ~version:Pipeline.TL_DL
  | `Trace_replay -> plain "trace/galgel/fcfs" (Run.Trace_file (trace_path "galgel"))
  | `Serve_mix -> serve_bench "swim" [ "Base"; "TPM" ]

(* --- seeded schedules -------------------------------------------------- *)

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Round [r] of a batch run: a seeded permutation of the catalogue
   indices [0 .. n-1]. *)
let round ~seed ~n r = shuffle (rng seed (1000 + r)) (Array.init n Fun.id)

(* Open-loop arrivals at [rate] over [seconds]: [count] exponential
   inter-arrival gaps, the Poisson process's, with [count] = [rate *
   seconds] rounded to whole cycles of [cycle] jobs so every run sends
   the same mix.  The gaps are the exponential distribution's [count]
   evenly spaced quantiles in seeded order, so every seed offers the same
   gaps and differs only in how they cluster. *)
let arrivals ~seed ~rate ~seconds ~cycle =
  let cycles =
    max 1 (int_of_float (Float.round (rate *. seconds /. float cycle)))
  in
  let count = cycles * cycle in
  let gaps =
    Array.init count (fun k ->
        -.log (1.0 -. ((float k +. 0.5) /. float count)) /. rate)
  in
  let gaps = shuffle (rng seed 7) gaps in
  let due = Array.make count 0.0 in
  for i = 1 to count - 1 do
    due.(i) <- due.(i - 1) +. gaps.(i - 1)
  done;
  due

(* The serve-mix send order: cycle after cycle, each shuffled. *)
let serve_order ~seed ~count =
  let cycles = (count + serve_cycle_len - 1) / serve_cycle_len in
  Array.concat
    (List.init cycles (fun c -> shuffle (rng seed (2000 + c)) (serve_cycle c)))
  |> fun a -> Array.sub a 0 count
