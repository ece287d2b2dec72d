module Json = Dpm_util.Json
module Telemetry = Dpm_util.Telemetry
module Sim = Dpm_sim

let schema_version = "dpm-report/1"
let bench_schema_version = "dpm-bench/1"

(* Every field below is emitted unconditionally (zero-valued when the
   run had nothing to report), so the document's schema outline is a
   constant of the code, not of the workload — the golden check in
   [make report-check] depends on this. *)

let fault_json (f : Sim.Result.fault_stats) =
  Json.Obj
    [
      ("read_retries", Json.Int f.Sim.Result.read_retries);
      ("retry_delay_s", Json.Float f.Sim.Result.retry_delay);
      ("remaps", Json.Int f.Sim.Result.remaps);
      ("spin_up_recoveries", Json.Int f.Sim.Result.spin_up_recoveries);
      ("redirects", Json.Int f.Sim.Result.redirects);
      ("failed_disks", Json.Int f.Sim.Result.failed_disks);
    ]

let disk_json (d : Sim.Timeline.disk_summary) =
  Json.Obj
    [
      ("disk", Json.Int d.Sim.Timeline.disk);
      ("busy_s", Json.Float d.Sim.Timeline.busy);
      ("ready_s", Json.Float d.Sim.Timeline.ready);
      ("ready_low_s", Json.Float d.Sim.Timeline.ready_low);
      ("changing_s", Json.Float d.Sim.Timeline.changing);
      ("standby_s", Json.Float d.Sim.Timeline.standby);
      ("services", Json.Int d.Sim.Timeline.services);
      ("modulations", Json.Int d.Sim.Timeline.modulations);
      ("spin_downs", Json.Int d.Sim.Timeline.spin_downs);
    ]

let timeline_json (tl : Sim.Timeline.t) (r : Sim.Result.t) =
  let energy = Sim.Timeline.reintegrate tl in
  let rel =
    if r.Sim.Result.energy = 0.0 then abs_float energy.Sim.Timeline.total
    else
      abs_float (energy.Sim.Timeline.total -. r.Sim.Result.energy)
      /. abs_float r.Sim.Result.energy
  in
  let invariants =
    match Sim.Timeline.check tl with
    | Ok () -> []
    | Error msgs -> msgs
  in
  Json.Obj
    [
      ("sim_end_s", Json.Float (Sim.Timeline.sim_end tl));
      ("reintegrated_energy_j", Json.Float energy.Sim.Timeline.total);
      ("energy_match", Json.Bool (rel <= 1e-6));
      ("invariants_ok", Json.Bool (invariants = []));
      ("invariant_errors", Json.Arr (List.map (fun m -> Json.Str m) invariants));
      ( "disks",
        Json.Arr
          (Array.to_list (Array.map disk_json (Sim.Timeline.disk_summaries tl)))
      );
    ]

let scheme_json ~base (scheme, (r : Sim.Result.t)) tl =
  Json.Obj
    [
      ("scheme", Json.Str (Scheme.name scheme));
      ("energy_j", Json.Float r.Sim.Result.energy);
      ("exec_time_s", Json.Float r.Sim.Result.exec_time);
      ("energy_norm", Json.Float (Sim.Result.normalized_energy r ~base));
      ("time_norm", Json.Float (Sim.Result.normalized_time r ~base));
      ("requests", Json.Int (Sim.Result.requests r));
      ("faults", fault_json r.Sim.Result.faults);
      ("timeline", timeline_json tl r);
    ]

let stage_rows tele =
  List.map
    (fun (name, total, calls) ->
      Json.Obj
        [
          ("stage", Json.Str name);
          ("calls", Json.Int calls);
          ("total_s", Json.Float total);
        ])
    (Telemetry.stages tele)

let counter_rows tele =
  List.map
    (fun (name, v) ->
      Json.Obj [ ("counter", Json.Str name); ("value", Json.Int v) ])
    (Telemetry.counters tele)

let histogram_rows tele =
  List.map
    (fun (name, h) ->
      Json.Obj
        [
          ("name", Json.Str name);
          ("count", Json.Int (Dpm_util.Histo.count h));
          ("mean", Json.Float (Dpm_util.Histo.mean h));
          ("min", Json.Float (Dpm_util.Histo.min_value h));
          ("p50", Json.Float (Dpm_util.Histo.quantile h 50.0));
          ("p90", Json.Float (Dpm_util.Histo.quantile h 90.0));
          ("p99", Json.Float (Dpm_util.Histo.quantile h 99.0));
          ("max", Json.Float (Dpm_util.Histo.max_value h));
          (* The mergeable wire form: `dpmsim aggregate` combines a
             sweep's per-run histograms from these. *)
          ("buckets", Dpm_util.Histo.to_json h);
        ])
    (Telemetry.histograms tele)

(* Assemble a dpm-report/1 document from already-executed results.  The
   shape is identical however the run happened — CLI report command,
   sweep cell, or service job — only the collector inputs differ: the
   CLI passes the process-wide collector, the service passes none
   (concurrent jobs share that collector, and service responses must be
   a deterministic function of the job alone). *)
let document ~label ~mode ~version ~faults ~(sim : Sim.Config.t) ?telemetry
    ~timeline_of results =
  (* Base anchors the normalized columns when present; otherwise the
     first result does (a service job need not include Base). *)
  let base =
    match List.assoc_opt Scheme.Base results with
    | Some b -> Some b
    | None -> ( match results with (_, r) :: _ -> Some r | [] -> None)
  in
  let collected rows =
    Json.Arr (match telemetry with None -> [] | Some t -> rows t)
  in
  let scheme_rows =
    match base with
    | None -> []
    | Some base ->
        List.map
          (fun ((s, _) as pair) -> scheme_json ~base pair (timeline_of s))
          results
  in
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("benchmark", Json.Str label);
      ( "mode",
        Json.Str (fst (List.find (fun (_, m) -> m = mode) Run.modes)) );
      ("transform", Json.Str (Dpm_compiler.Pipeline.version_name version));
      ("faults", Json.Str (Sim.Fault.to_string faults));
      ("sched", Json.Str (Sim.Config.sched_name sim.Sim.Config.sched));
      (* Semicolon-joined model slugs (a Str, not an Arr: an
         empty fleet must keep the same schema outline). *)
      ( "fleet",
        Json.Str
          (String.concat ";"
             (Array.to_list
                (Array.map Dpm_disk.Specs.name_of sim.Sim.Config.fleet))) );
      ("domains", Json.Int (Dpm_util.Pool.default_domains ()));
      ("schemes", Json.Arr scheme_rows);
      ("histograms", collected histogram_rows);
      ("stages", collected stage_rows);
      ("counters", collected counter_rows);
    ]

let of_spec spec =
  let ( let* ) = Result.bind in
  (* The stage table and the histograms both live on the process-wide
     collector; switch them on for the duration and restore the flags
     afterwards (recording is observational, so leaving earlier contents
     in place only adds rows — the report of a fresh CLI process is
     exactly this run's). *)
  let tele = Telemetry.global in
  let was_enabled = Telemetry.enabled tele in
  let had_histos = Telemetry.histograms_enabled tele in
  Telemetry.set_enabled tele true;
  Telemetry.set_histograms tele true;
  let restore () =
    Telemetry.set_enabled tele was_enabled;
    Telemetry.set_histograms tele had_histos
  in
  let* results, sinks, _ =
    Fun.protect ~finally:restore (fun () -> Run.observe spec)
  in
  let* label, setup = Run.describe spec in
  Ok
    (document ~label ~mode:setup.Experiment.mode
       ~version:setup.Experiment.version ~faults:setup.Experiment.faults
       ~sim:setup.Experiment.sim ~telemetry:tele
       ~timeline_of:(fun s -> Sim.Timeline.contents (List.assoc s sinks))
       results)

(* --- the one reader --- *)

type scheme_row = {
  scheme : string;
  energy_j : float;
  exec_time_s : float;
  energy_norm : float;
  time_norm : float;
  requests : int;
  faults : Sim.Result.fault_stats;
  sim_end_s : float;
  reintegrated_energy_j : float;
  energy_match : bool;
  invariants_ok : bool;
}

type histogram = {
  name : string;
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
  buckets : Dpm_util.Histo.t;
}

type t = {
  benchmark : string;
  mode : string;
  transform : string;
  faults : string;
  sched : string;
  fleet : string;
  domains : int;
  schemes : scheme_row list;
  histograms : histogram list;
  stages : (string * float * int) list;
}

(* A document is decoded whole: the first field that is missing or
   mistyped fails it, naming the field's path.  Fields are read in
   document order, so the error is deterministic. *)
exception Bad_field of string

let need read at k j =
  match Json.required read ~at k j with
  | Ok x -> x
  | Error m -> raise (Bad_field m)

let decode_scheme i s =
  let at = Printf.sprintf "schemes[%d]." i in
  let num k = need Json.number at k s and int k = need Json.integer at k s in
  let scheme = need Json.text at "scheme" s in
  let energy_j = num "energy_j" in
  let exec_time_s = num "exec_time_s" in
  let energy_norm = num "energy_norm" in
  let time_norm = num "time_norm" in
  let requests = int "requests" in
  let faults =
    let f = need Json.obj at "faults" s and at = at ^ "faults." in
    let int k = need Json.integer at k f in
    let read_retries = int "read_retries" in
    let retry_delay = need Json.number at "retry_delay_s" f in
    let remaps = int "remaps" in
    let spin_up_recoveries = int "spin_up_recoveries" in
    let redirects = int "redirects" in
    let failed_disks = int "failed_disks" in
    {
      Sim.Result.read_retries;
      retry_delay;
      remaps;
      spin_up_recoveries;
      redirects;
      failed_disks;
    }
  in
  let tl = need Json.obj at "timeline" s and at = at ^ "timeline." in
  let sim_end_s = need Json.number at "sim_end_s" tl in
  let reintegrated_energy_j = need Json.number at "reintegrated_energy_j" tl in
  let energy_match = need Json.boolean at "energy_match" tl in
  let invariants_ok = need Json.boolean at "invariants_ok" tl in
  {
    scheme;
    energy_j;
    exec_time_s;
    energy_norm;
    time_norm;
    requests;
    faults;
    sim_end_s;
    reintegrated_energy_j;
    energy_match;
    invariants_ok;
  }

let decode_histogram i h =
  let at = Printf.sprintf "histograms[%d]." i in
  let num k = need Json.number at k h in
  let name = need Json.text at "name" h in
  let count = need Json.integer at "count" h in
  let mean = num "mean" in
  let p50 = num "p50" in
  let p90 = num "p90" in
  let p99 = num "p99" in
  let max = num "max" in
  match Dpm_util.Histo.of_json (need Json.obj at "buckets" h) with
  | Ok buckets -> { name; count; mean; p50; p90; p99; max; buckets }
  | Error e -> raise (Bad_field (Printf.sprintf "%sbuckets: %s" at e))

let decode_stage i st =
  let at = Printf.sprintf "stages[%d]." i in
  let stage = need Json.text at "stage" st in
  let calls = need Json.integer at "calls" st in
  (stage, need Json.number at "total_s" st, calls)

let decode doc =
  let items k decode_item = List.mapi decode_item (need Json.array "" k doc) in
  match
    let text k = need Json.text "" k doc in
    let schema = text "schema" in
    if schema <> schema_version then
      raise
        (Bad_field
           (Printf.sprintf "schema: %S, expected %S" schema schema_version));
    let benchmark = text "benchmark" in
    let mode = text "mode" in
    let transform = text "transform" in
    let faults = text "faults" in
    let sched = text "sched" in
    let fleet = text "fleet" in
    let domains = need Json.integer "" "domains" doc in
    let schemes = items "schemes" decode_scheme in
    let histograms = items "histograms" decode_histogram in
    {
      benchmark;
      mode;
      transform;
      faults;
      sched;
      fleet;
      domains;
      schemes;
      histograms;
      stages = items "stages" decode_stage;
    }
  with
  | report -> Ok report
  | exception Bad_field m -> Error m

let validate doc =
  match decode doc with
  | Error m -> Error [ m ]
  | Ok { schemes = []; _ } -> Error [ "schemes: empty array" ]
  | Ok r -> (
      match List.filter (fun row -> not row.invariants_ok) r.schemes with
      | [] -> Ok r
      | failed ->
          Error
            (List.map (fun row -> row.scheme ^ ": timeline invariants failed")
               failed))

(* --- markdown digest --- *)

let md_table buf header row_of items =
  Buffer.add_string buf ("| " ^ String.concat " | " header ^ " |\n");
  Buffer.add_string buf
    ("|" ^ String.concat "|" (List.map (fun _ -> "---") header) ^ "|\n");
  List.iter
    (fun item ->
      Buffer.add_string buf ("| " ^ String.concat " | " (row_of item) ^ " |\n"))
    items

let markdown r =
  let num = Printf.sprintf "%.6g" and int = string_of_int in
  let verdict ok = if ok then "ok" else "FAIL" in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Printf.sprintf "# dpm run report: %s\n\n" r.benchmark);
  Buffer.add_string buf
    (Printf.sprintf
       "- schema: %s\n- mode: %s\n- transform: %s\n- faults: `%s`\n- sched: \
        %s\n- fleet: %s\n- domains: %d\n\n"
       schema_version r.mode r.transform r.faults r.sched
       (match r.fleet with "" -> "(homogeneous)" | f -> f)
       r.domains);
  Buffer.add_string buf "## Schemes\n\n";
  md_table buf
    [ "scheme"; "energy (J)"; "time (s)"; "E/base"; "T/base"; "requests" ]
    (fun s ->
      [
        s.scheme;
        num s.energy_j;
        num s.exec_time_s;
        num s.energy_norm;
        num s.time_norm;
        int s.requests;
      ])
    r.schemes;
  Buffer.add_string buf "\n## Timeline checks\n\n";
  md_table buf
    [ "scheme"; "sim end (s)"; "reintegrated (J)"; "energy match"; "invariants" ]
    (fun s ->
      [
        s.scheme;
        num s.sim_end_s;
        num s.reintegrated_energy_j;
        verdict s.energy_match;
        verdict s.invariants_ok;
      ])
    r.schemes;
  Buffer.add_string buf "\n## Fault counters\n\n";
  md_table buf
    [ "scheme"; "retries"; "delay (s)"; "remaps"; "spinup-rec"; "redirects"; "failed" ]
    (fun (s : scheme_row) ->
      let f = s.faults in
      [
        s.scheme;
        int f.Sim.Result.read_retries;
        num f.Sim.Result.retry_delay;
        int f.Sim.Result.remaps;
        int f.Sim.Result.spin_up_recoveries;
        int f.Sim.Result.redirects;
        int f.Sim.Result.failed_disks;
      ])
    r.schemes;
  Buffer.add_string buf "\n## Histograms\n\n";
  md_table buf
    [ "histogram"; "count"; "mean"; "p50"; "p90"; "p99"; "max" ]
    (fun h ->
      [
        h.name;
        int h.count;
        num h.mean;
        num h.p50;
        num h.p90;
        num h.p99;
        num h.max;
      ])
    r.histograms;
  Buffer.add_string buf "\n## Stage timings\n\n";
  md_table buf
    [ "stage"; "calls"; "total (s)" ]
    (fun (stage, total_s, calls) -> [ stage; int calls; num total_s ])
    r.stages;
  Buffer.contents buf

(* --- benchmark snapshots --- *)

let bench_snapshot ?(extra = []) ~figures () =
  Json.Obj
    ([
       ("schema", Json.Str bench_schema_version);
       ("domains", Json.Int (Dpm_util.Pool.default_domains ()));
       ( "figures",
         Json.Arr
           (List.map
              (fun (id, seconds) ->
                Json.Obj
                  [ ("id", Json.Str id); ("seconds", Json.Float seconds) ])
              figures) );
       ("stages", Json.Arr (stage_rows Telemetry.global));
       ("counters", Json.Arr (counter_rows Telemetry.global));
     ]
    @ extra)

let validate_bench doc =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (match Option.bind (Json.member "schema" doc) Json.to_str with
  | Some s when s = bench_schema_version -> ()
  | Some s -> err "schema is %S, expected %S" s bench_schema_version
  | None -> err "missing schema tag");
  (match Option.bind (Json.member "figures" doc) Json.to_list with
  | None -> err "missing figures array"
  | Some [] -> err "figures array is empty"
  | Some figs ->
      List.iteri
        (fun i f ->
          (match Option.bind (Json.member "id" f) Json.to_str with
          | Some _ -> ()
          | None -> err "figure %d: missing id" i);
          match Option.bind (Json.member "seconds" f) Json.to_float with
          | Some s when s >= 0.0 -> ()
          | Some _ -> err "figure %d: negative seconds" i
          | None -> err "figure %d: missing seconds" i)
        figs);
  match !errors with [] -> Ok () | es -> Error (List.rev es)
