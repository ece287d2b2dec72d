module Json = Dpm_util.Json
module Histo = Dpm_util.Histo
module Table = Dpm_util.Table
module Meter = Dpm_sim.Meter

let schema_version = "dpm-agg/1"

(* --- accumulators --- *)

type scheme_acc = {
  mutable runs : int;
  mutable energy : float;
  mutable norm_sum : float;
  mutable norm_min : float;
  mutable norm_max : float;
  mutable requests : int;
  mutable invariants_ok : bool;
  mutable faults : Dpm_sim.Result.fault_stats;
}

type meter_scheme_acc = {
  mutable m_sections : int;
  mutable m_energy : float;
  mutable m_horizon : float;
  mutable m_peak : float;
}

type model_acc = {
  mutable mo_energy : float;
  mutable mo_disks : (string * int, unit) Hashtbl.t;
      (** (section id, disk) pairs — distinct lanes attributed here. *)
}

type t = {
  mutable srcs : (string * string) list;  (* reversed *)
  mutable report_files : int;
  mutable meter_files : int;
  mutable benchmarks : string list;  (* reversed, de-duplicated *)
  mutable schemes : (string * scheme_acc) list;  (* reversed insertion *)
  mutable histos : (string * Histo.t) list;  (* reversed insertion *)
  mutable sections : int;
  mutable dropped : int;
  mutable fleet_energy : float;
  mutable fleet_horizon : float;
  mutable fleet_peak : float;
  mutable meter_schemes : (string * meter_scheme_acc) list;
  mutable models : (string * model_acc) list;
}

let empty () =
  {
    srcs = [];
    report_files = 0;
    meter_files = 0;
    benchmarks = [];
    schemes = [];
    histos = [];
    sections = 0;
    dropped = 0;
    fleet_energy = 0.0;
    fleet_horizon = 0.0;
    fleet_peak = 0.0;
    meter_schemes = [];
    models = [];
  }

let assoc_or key fresh slot =
  match List.assoc_opt key !slot with
  | Some v -> v
  | None ->
      let v = fresh () in
      slot := (key, v) :: !slot;
      v

(* --- report ingest --- *)

let add_faults (a : Dpm_sim.Result.fault_stats)
    (b : Dpm_sim.Result.fault_stats) =
  {
    Dpm_sim.Result.read_retries = a.read_retries + b.read_retries;
    retry_delay = a.retry_delay +. b.retry_delay;
    remaps = a.remaps + b.remaps;
    spin_up_recoveries = a.spin_up_recoveries + b.spin_up_recoveries;
    redirects = a.redirects + b.redirects;
    failed_disks = a.failed_disks + b.failed_disks;
  }

let ingest_report t (report : Report.t) =
  t.report_files <- t.report_files + 1;
  let benchmark = report.Report.benchmark in
  if benchmark <> "" && not (List.mem benchmark t.benchmarks) then
    t.benchmarks <- benchmark :: t.benchmarks;
  List.iter
    (fun (r : Report.scheme_row) ->
      let slot = ref t.schemes in
      let acc =
        assoc_or r.scheme
          (fun () ->
            {
              runs = 0;
              energy = 0.0;
              norm_sum = 0.0;
              norm_min = infinity;
              norm_max = neg_infinity;
              requests = 0;
              invariants_ok = true;
              faults = Dpm_sim.Result.no_faults;
            })
          slot
      in
      t.schemes <- !slot;
      acc.runs <- acc.runs + 1;
      acc.energy <- acc.energy +. r.energy_j;
      acc.norm_sum <- acc.norm_sum +. r.energy_norm;
      if r.energy_norm < acc.norm_min then acc.norm_min <- r.energy_norm;
      if r.energy_norm > acc.norm_max then acc.norm_max <- r.energy_norm;
      acc.requests <- acc.requests + r.requests;
      if not r.invariants_ok then acc.invariants_ok <- false;
      acc.faults <- add_faults acc.faults r.faults)
    report.Report.schemes;
  List.iter
    (fun (name, histo) ->
      let slot = ref t.histos in
      let into = assoc_or name Histo.create slot in
      t.histos <- !slot;
      Histo.merge_into ~into histo)
    report.Report.histograms

(* --- meter ingest --- *)

let ingest_meter_section t ~section_id (sec : Meter.section) =
  t.sections <- t.sections + 1;
  t.dropped <- t.dropped + sec.Meter.m_dropped;
  let slot = ref t.meter_schemes in
  let acc =
    assoc_or sec.Meter.m_scheme
      (fun () ->
        { m_sections = 0; m_energy = 0.0; m_horizon = 0.0; m_peak = 0.0 })
      slot
  in
  t.meter_schemes <- !slot;
  acc.m_sections <- acc.m_sections + 1;
  acc.m_horizon <- acc.m_horizon +. sec.Meter.m_horizon;
  t.fleet_horizon <- t.fleet_horizon +. sec.Meter.m_horizon;
  let nslugs = List.length sec.Meter.m_fleet in
  let slug_of disk =
    if nslugs = 0 then "unknown" else List.nth sec.Meter.m_fleet (disk mod nslugs)
  in
  (* Per-window fleet sums for the peak; lanes are rectangular, so
     summing watts across disks at one window index is summing
     simultaneous power. *)
  let windows = Hashtbl.create 64 in
  List.iter
    (fun (s : Meter.sample) ->
      let e = s.Meter.watts *. (s.Meter.t1 -. s.Meter.t0) in
      acc.m_energy <- acc.m_energy +. e;
      t.fleet_energy <- t.fleet_energy +. e;
      let mslot = ref t.models in
      let macc =
        assoc_or (slug_of s.Meter.disk)
          (fun () -> { mo_energy = 0.0; mo_disks = Hashtbl.create 8 })
          mslot
      in
      t.models <- !mslot;
      macc.mo_energy <- macc.mo_energy +. e;
      Hashtbl.replace macc.mo_disks (section_id, s.Meter.disk) ();
      let prev =
        Option.value ~default:0.0 (Hashtbl.find_opt windows s.Meter.index)
      in
      Hashtbl.replace windows s.Meter.index (prev +. s.Meter.watts))
    sec.Meter.m_samples;
  Hashtbl.iter
    (fun _ w ->
      if w > acc.m_peak then acc.m_peak <- w;
      if w > t.fleet_peak then t.fleet_peak <- w)
    windows

(* --- classification --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let classify_json t path =
  match Json.parse_string (read_file path) with
  | Error e -> Printf.sprintf "skipped: unparseable json (%s)" e
  | Ok doc -> (
      match Option.bind (Json.member "schema" doc) Json.to_str with
      | Some s when s = Report.schema_version -> (
          match Report.decode doc with
          | Ok report ->
              ingest_report t report;
              "report"
          | Error why -> "skipped: " ^ why)
      | Some s -> Printf.sprintf "skipped: schema %s" s
      | None -> "skipped: no schema tag")

let classify_jsonl t path =
  let ic = open_in path in
  match
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Meter.read_jsonl ic)
  with
  | Ok [] -> "skipped: empty meter file"
  | Ok sections ->
      List.iteri
        (fun i sec ->
          ingest_meter_section t
            ~section_id:(Printf.sprintf "%s#%d" path i)
            sec)
        sections;
      "meter"
  | Error m -> Printf.sprintf "skipped: %s" m

let classify t path =
  let kind =
    if not (Sys.file_exists path) then "skipped: no such file"
    else if Sys.is_directory path then "skipped: directory"
    else if Filename.check_suffix path ".json" then classify_json t path
    else if Filename.check_suffix path ".jsonl" then (
      match classify_jsonl t path with
      | "meter" ->
          t.meter_files <- t.meter_files + 1;
          "meter"
      | k -> k)
    else "skipped: unrecognized extension"
  in
  t.srcs <- (path, kind) :: t.srcs

let of_files paths =
  let t = empty () in
  List.iter (classify t) paths;
  t

let of_paths paths =
  let files path =
    if not (Sys.file_exists path) then
      Error (path ^ ": no such file or directory")
    else if Sys.is_directory path then
      match Sys.readdir path with
      | entries ->
          Array.sort compare entries;
          Ok (List.map (Filename.concat path) (Array.to_list entries))
      | exception Sys_error m -> Error m
    else Ok [ path ]
  in
  Result.map
    (fun l -> of_files (List.concat l))
    (Dpm_util.Kv.all files paths)

let sources t = List.rev t.srcs

(* --- the document --- *)

let norm_mean a = if a.runs = 0 then 0.0 else a.norm_sum /. float_of_int a.runs
let zero_if_inf v = if Float.is_finite v then v else 0.0

let scheme_row (name, a) =
  Json.Obj
    [
      ("scheme", Json.Str name);
      ("runs", Json.Int a.runs);
      ("energy_j", Json.Float a.energy);
      ("energy_norm_mean", Json.Float (norm_mean a));
      ("energy_norm_min", Json.Float (zero_if_inf a.norm_min));
      ("energy_norm_max", Json.Float (zero_if_inf a.norm_max));
      ("requests", Json.Int a.requests);
      ("invariants_ok", Json.Bool a.invariants_ok);
      ("faults", Report.fault_json a.faults);
    ]

let histo_row (name, h) =
  Json.Obj
    [
      ("name", Json.Str name);
      ("count", Json.Int (Histo.count h));
      ("mean", Json.Float (Histo.mean h));
      ("p50", Json.Float (Histo.quantile h 50.0));
      ("p90", Json.Float (Histo.quantile h 90.0));
      ("p99", Json.Float (Histo.quantile h 99.0));
      ("max", Json.Float (Histo.max_value h));
      ("buckets", Histo.to_json h);
    ]

let meter_scheme_row (name, a) =
  Json.Obj
    [
      ("scheme", Json.Str name);
      ("sections", Json.Int a.m_sections);
      ("energy_j", Json.Float a.m_energy);
      ("peak_w", Json.Float a.m_peak);
      ( "mean_w",
        Json.Float (if a.m_horizon > 0.0 then a.m_energy /. a.m_horizon else 0.0)
      );
    ]

let model_row (name, a) =
  Json.Obj
    [
      ("model", Json.Str name);
      ("disks", Json.Int (Hashtbl.length a.mo_disks));
      ("energy_j", Json.Float a.mo_energy);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ( "sources",
        Json.Arr
          (List.map
             (fun (path, kind) ->
               Json.Obj [ ("path", Json.Str path); ("kind", Json.Str kind) ])
             (sources t)) );
      ( "reports",
        Json.Obj
          [
            ("files", Json.Int t.report_files);
            ("benchmarks", Json.Str (String.concat ";" (List.rev t.benchmarks)));
            ("schemes", Json.Arr (List.map scheme_row (List.rev t.schemes)));
            ("histograms", Json.Arr (List.map histo_row (List.rev t.histos)));
          ] );
      ( "meters",
        Json.Obj
          [
            ("files", Json.Int t.meter_files);
            ("sections", Json.Int t.sections);
            ("energy_j", Json.Float t.fleet_energy);
            ("peak_fleet_w", Json.Float t.fleet_peak);
            ( "mean_fleet_w",
              Json.Float
                (if t.fleet_horizon > 0.0 then
                   t.fleet_energy /. t.fleet_horizon
                 else 0.0) );
            ("dropped", Json.Int t.dropped);
            ( "schemes",
              Json.Arr (List.map meter_scheme_row (List.rev t.meter_schemes)) );
            ("models", Json.Arr (List.map model_row (List.rev t.models)));
          ] );
    ]

(* --- rendering --- *)

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "aggregate over %d source file(s): %d report(s), %d meter file(s), %d \
        skipped\n"
       (List.length t.srcs) t.report_files t.meter_files
       (List.length t.srcs - t.report_files - t.meter_files));
  List.iter
    (fun (path, kind) ->
      if
        String.length kind >= 7
        && String.sub kind 0 7 = "skipped"
      then Buffer.add_string buf (Printf.sprintf "  %s: %s\n" path kind))
    (sources t);
  if t.schemes <> [] then begin
    let table =
      Table.create ~title:"reports: per-scheme totals"
        ~columns:
          [
            ("scheme", Table.Left);
            ("runs", Table.Right);
            ("energy-j", Table.Right);
            ("norm-mean", Table.Right);
            ("norm-min", Table.Right);
            ("norm-max", Table.Right);
            ("requests", Table.Right);
            ("invariants", Table.Left);
          ]
    in
    List.iter
      (fun (name, a) ->
        Table.add_row table
          [
            name;
            Table.cell_int a.runs;
            Table.cell_f a.energy;
            Table.cell_f3 (norm_mean a);
            Table.cell_f3 (zero_if_inf a.norm_min);
            Table.cell_f3 (zero_if_inf a.norm_max);
            Table.cell_int a.requests;
            (if a.invariants_ok then "ok" else "FAIL");
          ])
      (List.rev t.schemes);
    Buffer.add_string buf (Table.render table)
  end;
  if t.histos <> [] then begin
    let table =
      Table.create ~title:"reports: merged histograms"
        ~columns:
          [
            ("histogram", Table.Left);
            ("count", Table.Right);
            ("mean", Table.Right);
            ("p50", Table.Right);
            ("p99", Table.Right);
            ("max", Table.Right);
          ]
    in
    List.iter
      (fun (name, h) ->
        Table.add_row table
          [
            name;
            Table.cell_int (Histo.count h);
            Printf.sprintf "%.6g" (Histo.mean h);
            Printf.sprintf "%.6g" (Histo.quantile h 50.0);
            Printf.sprintf "%.6g" (Histo.quantile h 99.0);
            Printf.sprintf "%.6g" (Histo.max_value h);
          ])
      (List.rev t.histos);
    Buffer.add_string buf (Table.render table)
  end;
  if t.meter_schemes <> [] then begin
    let table =
      Table.create ~title:"meters: per-scheme power"
        ~columns:
          [
            ("scheme", Table.Left);
            ("sections", Table.Right);
            ("energy-j", Table.Right);
            ("peak-w", Table.Right);
            ("mean-w", Table.Right);
          ]
    in
    List.iter
      (fun (name, a) ->
        Table.add_row table
          [
            (if name = "" then "(unlabeled)" else name);
            Table.cell_int a.m_sections;
            Table.cell_f a.m_energy;
            Table.cell_f a.m_peak;
            Table.cell_f
              (if a.m_horizon > 0.0 then a.m_energy /. a.m_horizon else 0.0);
          ])
      (List.rev t.meter_schemes);
    Buffer.add_string buf (Table.render table)
  end;
  if t.models <> [] then begin
    let table =
      Table.create ~title:"meters: per-model energy"
        ~columns:
          [
            ("model", Table.Left);
            ("disk-lanes", Table.Right);
            ("energy-j", Table.Right);
          ]
    in
    List.iter
      (fun (name, a) ->
        Table.add_row table
          [ name; Table.cell_int (Hashtbl.length a.mo_disks);
            Table.cell_f a.mo_energy ])
      (List.rev t.models);
    Buffer.add_string buf (Table.render table)
  end;
  if t.sections > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "fleet: %d meter section(s), energy %.2f J, peak %.2f W, mean %.2f \
          W, %d sample(s) dropped\n"
         t.sections t.fleet_energy t.fleet_peak
         (if t.fleet_horizon > 0.0 then t.fleet_energy /. t.fleet_horizon
          else 0.0)
         t.dropped);
  Buffer.contents buf

let markdown t =
  let buf = Buffer.create 1024 in
  let md_table header rows =
    Buffer.add_string buf ("| " ^ String.concat " | " header ^ " |\n");
    Buffer.add_string buf
      ("|" ^ String.concat "|" (List.map (fun _ -> "---") header) ^ "|\n");
    List.iter
      (fun cells ->
        Buffer.add_string buf ("| " ^ String.concat " | " cells ^ " |\n"))
      rows
  in
  Buffer.add_string buf "# dpm sweep aggregate\n\n";
  Buffer.add_string buf
    (Printf.sprintf
       "- schema: %s\n- reports: %d\n- meter files: %d (%d sections)\n- \
        benchmarks: %s\n\n"
       schema_version t.report_files t.meter_files t.sections
       (match List.rev t.benchmarks with
       | [] -> "-"
       | b -> String.concat ";" b));
  Buffer.add_string buf "## Per-scheme report totals\n\n";
  md_table
    [ "scheme"; "runs"; "energy (J)"; "norm mean"; "norm min"; "norm max"; "invariants" ]
    (List.map
       (fun (name, a) ->
         [
           name;
           string_of_int a.runs;
           Printf.sprintf "%.6g" a.energy;
           Printf.sprintf "%.4g" (norm_mean a);
           Printf.sprintf "%.4g" (zero_if_inf a.norm_min);
           Printf.sprintf "%.4g" (zero_if_inf a.norm_max);
           (if a.invariants_ok then "ok" else "FAIL");
         ])
       (List.rev t.schemes));
  Buffer.add_string buf "\n## Merged histograms\n\n";
  md_table
    [ "histogram"; "count"; "mean"; "p50"; "p90"; "p99"; "max" ]
    (List.map
       (fun (name, h) ->
         [
           name;
           string_of_int (Histo.count h);
           Printf.sprintf "%.6g" (Histo.mean h);
           Printf.sprintf "%.6g" (Histo.quantile h 50.0);
           Printf.sprintf "%.6g" (Histo.quantile h 90.0);
           Printf.sprintf "%.6g" (Histo.quantile h 99.0);
           Printf.sprintf "%.6g" (Histo.max_value h);
         ])
       (List.rev t.histos));
  Buffer.add_string buf "\n## Fleet power (meters)\n\n";
  md_table
    [ "scheme"; "sections"; "energy (J)"; "peak (W)"; "mean (W)" ]
    (List.map
       (fun (name, a) ->
         [
           (if name = "" then "(unlabeled)" else name);
           string_of_int a.m_sections;
           Printf.sprintf "%.6g" a.m_energy;
           Printf.sprintf "%.4g" a.m_peak;
           Printf.sprintf "%.4g"
             (if a.m_horizon > 0.0 then a.m_energy /. a.m_horizon else 0.0);
         ])
       (List.rev t.meter_schemes));
  Buffer.add_string buf "\n## Per-model energy\n\n";
  md_table
    [ "model"; "disk lanes"; "energy (J)" ]
    (List.map
       (fun (name, a) ->
         [
           name;
           string_of_int (Hashtbl.length a.mo_disks);
           Printf.sprintf "%.6g" a.mo_energy;
         ])
       (List.rev t.models));
  Buffer.contents buf

(* --- validation --- *)

let validate doc =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (match Option.bind (Json.member "schema" doc) Json.to_str with
  | Some s when s = schema_version -> ()
  | Some s -> err "schema is %S, expected %S" s schema_version
  | None -> err "missing schema tag");
  (match Option.bind (Json.member "sources" doc) Json.to_list with
  | Some (_ :: _) -> ()
  | Some [] -> err "sources array is empty"
  | None -> err "missing sources array");
  let section name =
    match Json.member name doc with
    | Some (Json.Obj _ as s) -> (
        match Option.bind (Json.member "files" s) Json.to_int with
        | Some n when n >= 0 -> Some s
        | Some _ -> err "%s: negative file count" name; None
        | None -> err "%s: missing files count" name; None)
    | Some _ -> err "%s is not an object" name; None
    | None -> err "missing %s section" name; None
  in
  let reports = section "reports" in
  let meters = section "meters" in
  (match (reports, meters) with
  | Some r, Some m ->
      let files s = Option.value ~default:0 (Option.bind (Json.member "files" s) Json.to_int) in
      if files r = 0 && files m = 0 then begin
        (* Say why each input was passed over before failing. *)
        List.iter
          (fun src ->
            let field k = Option.bind (Json.member k src) Json.to_str in
            match (field "path", field "kind") with
            | Some path, Some kind -> err "%s: %s" path kind
            | _ -> ())
          (Option.value ~default:[]
             (Option.bind (Json.member "sources" doc) Json.to_list));
        err "no dpm-report/1 or dpm-meter/1 inputs were aggregated"
      end
  | _ -> ());
  (match reports with
  | Some r ->
      List.iteri
        (fun i s ->
          match Option.bind (Json.member "energy_j" s) Json.to_float with
          | Some _ -> ()
          | None -> err "reports scheme %d: missing energy_j" i)
        (Option.value ~default:[]
           (Option.bind (Json.member "schemes" r) Json.to_list))
  | None -> ());
  (match meters with
  | Some m -> (
      match Option.bind (Json.member "peak_fleet_w" m) Json.to_float with
      | Some _ -> ()
      | None -> err "meters: missing peak_fleet_w")
  | None -> ());
  match !errors with [] -> Ok () | es -> Error (List.rev es)
