(* Parameter-space sweep harness (ROADMAP item 3).

   A declarative list of axes — grids over the simulator-configuration
   knobs — expands into the cartesian product of points; every
   (workload x point) cell runs through [Run.exec_all] (so each cell is
   a complete scheme comparison with its own Base anchor) fanned out
   over [Dpm_util.Pool].  Cells share nothing, so the grid is
   deterministic at any domain count, and the report sections follow
   the GEOPM power-sweep shape: a per-workload best-configuration
   table, the overall winners (persisted as replayable dpm-spec/1
   files), and per-axis marginal sensitivities. *)

module Sim = Dpm_sim
module Json = Dpm_util.Json
module Pool = Dpm_util.Pool

let schema_version = "dpm-sweep/1"

type axis =
  | Tpm_threshold of float list
  | Drpm_lower of float list
  | Drpm_upper of float list
  | Drpm_window of int list
  | Drpm_idle_interval of float list
  | Drpm_floor_depth of int list
  | Queue_depth of int list
  | Pm_call_overhead of float list
  | Pre_activation_lead of float list
  | Sched of Sim.Config.sched list

let axis_name = function
  | Tpm_threshold _ -> "tpm-threshold"
  | Drpm_lower _ -> "drpm-lower"
  | Drpm_upper _ -> "drpm-upper"
  | Drpm_window _ -> "drpm-window"
  | Drpm_idle_interval _ -> "drpm-idle-interval"
  | Drpm_floor_depth _ -> "drpm-floor-depth"
  | Queue_depth _ -> "queue-depth"
  | Pm_call_overhead _ -> "pm-call-overhead"
  | Pre_activation_lead _ -> "pre-activation-lead"
  | Sched _ -> "sched"

(* The scheduler axis rides the float-valued grid as an index into
   [Config.sched_names] (stable order); rendering turns it back into
   the canonical name. *)
let sched_index s =
  let rec go i = function
    | [] -> invalid_arg "Sweep: unregistered scheduler"
    | (_, v) :: tl -> if v = s then i else go (i + 1) tl
  in
  go 0 Sim.Config.sched_names

let sched_of_index i =
  match List.nth_opt Sim.Config.sched_names i with
  | Some (_, s) -> s
  | None -> invalid_arg "Sweep: scheduler index out of range"

let axis_values = function
  | Tpm_threshold vs
  | Drpm_lower vs
  | Drpm_upper vs
  | Drpm_idle_interval vs
  | Pm_call_overhead vs
  | Pre_activation_lead vs ->
      vs
  | Drpm_window vs | Drpm_floor_depth vs | Queue_depth vs ->
      List.map float_of_int vs
  | Sched vs -> List.map (fun s -> float_of_int (sched_index s)) vs

(* One grid coordinate: (canonical axis name, value) in axis order.
   Integer-valued axes carry their value as a float for uniformity; the
   appliers truncate back. *)
type point = (string * float) list

let apply_setting config (name, v) =
  match name with
  | "tpm-threshold" -> Sim.Config.with_tpm_threshold (Some v) config
  | "drpm-lower" -> Sim.Config.with_drpm_lower v config
  | "drpm-upper" -> Sim.Config.with_drpm_upper v config
  | "drpm-window" -> Sim.Config.with_drpm_window (int_of_float v) config
  | "drpm-idle-interval" -> Sim.Config.with_drpm_idle_interval v config
  | "drpm-floor-depth" ->
      Sim.Config.with_drpm_floor_depth (int_of_float v) config
  | "queue-depth" -> Sim.Config.with_queue_depth (int_of_float v) config
  | "pm-call-overhead" -> Sim.Config.with_pm_call_overhead v config
  | "pre-activation-lead" -> Sim.Config.with_pre_activation_lead v config
  | "sched" -> Sim.Config.with_sched (sched_of_index (int_of_float v)) config
  | _ -> invalid_arg ("Sweep.apply: unknown axis " ^ name)

let apply config (p : point) = List.fold_left apply_setting config p

let expand axes =
  List.fold_right
    (fun axis tails ->
      let name = axis_name axis in
      List.concat_map
        (fun v -> List.map (fun tail -> (name, v) :: tail) tails)
        (axis_values axis))
    axes [ [] ]

(* CLI format: ";"-separated "axis=v1,v2,..." clauses, e.g.
   "tpm-threshold=4,15.2;drpm-lower=0.02,0.08". *)
let axes_of_string s =
  let ( let* ) = Result.bind in
  let axis_of_clause clause =
    match String.index_opt clause '=' with
    | None -> Error (Printf.sprintf "%S: expected axis=v1,v2,..." clause)
    | Some i -> (
        let name = String.trim (String.sub clause 0 i) in
        let rest =
          String.sub clause (i + 1) (String.length clause - i - 1)
        in
        if String.equal name "sched" then
          let* scheds =
            List.fold_left
              (fun acc tok ->
                let* acc = acc in
                let tok = String.trim tok in
                match Sim.Config.sched_of_name_opt tok with
                | Some s -> Ok (s :: acc)
                | None ->
                    Error (Printf.sprintf "sched: unknown scheduler %S" tok))
              (Ok [])
              (String.split_on_char ',' rest)
            |> Result.map List.rev
          in
          let* () =
            if scheds = [] then Error "sched: empty value list" else Ok ()
          in
          Ok (Sched scheds)
        else
        let* values =
          List.fold_left
            (fun acc tok ->
              let* acc = acc in
              let tok = String.trim tok in
              match float_of_string_opt tok with
              | Some v -> Ok (v :: acc)
              | None -> Error (Printf.sprintf "%s: bad value %S" name tok))
            (Ok [])
            (String.split_on_char ',' rest)
          |> Result.map List.rev
        in
        let* () =
          if values = [] then Error (name ^ ": empty value list") else Ok ()
        in
        let ints () =
          List.map (fun v -> int_of_float (Float.round v)) values
        in
        match name with
        | "tpm-threshold" -> Ok (Tpm_threshold values)
        | "drpm-lower" -> Ok (Drpm_lower values)
        | "drpm-upper" -> Ok (Drpm_upper values)
        | "drpm-window" -> Ok (Drpm_window (ints ()))
        | "drpm-idle-interval" -> Ok (Drpm_idle_interval values)
        | "drpm-floor-depth" -> Ok (Drpm_floor_depth (ints ()))
        | "queue-depth" -> Ok (Queue_depth (ints ()))
        | "pm-call-overhead" -> Ok (Pm_call_overhead values)
        | "pre-activation-lead" -> Ok (Pre_activation_lead values)
        | _ ->
            Error
              (Printf.sprintf
                 "unknown axis %S (expected one of: tpm-threshold, \
                  drpm-lower, drpm-upper, drpm-window, drpm-idle-interval, \
                  drpm-floor-depth, queue-depth, pm-call-overhead, \
                  pre-activation-lead, sched)"
                 name))
  in
  List.fold_left
    (fun acc clause ->
      let* acc = acc in
      let clause = String.trim clause in
      if clause = "" then Ok acc
      else
        let* axis = axis_of_clause clause in
        Ok (axis :: acc))
    (Ok [])
    (String.split_on_char ';' s)
  |> Result.map List.rev

let value_to_string n v =
  if String.equal n "sched" then
    Sim.Config.sched_name (sched_of_index (int_of_float v))
  else Printf.sprintf "%g" v

let setting_to_string (n, v) =
  Printf.sprintf "%s=%s" n (value_to_string n v)

let point_to_string (p : point) =
  String.concat ", " (List.map setting_to_string p)

(* --- Running the grid --- *)

type cell = {
  workload : string;
  point : point;
  results : (Scheme.t * Sim.Result.t) list;
}

type outcome = {
  axes : axis list;
  workloads : string list;
  schemes : Scheme.t list;
  cells : cell list;
}

let default_schemes =
  [ Scheme.Base; Scheme.Tpm; Scheme.Drpm; Scheme.Adaptive; Scheme.Idrpm ]

let spec_of ~schemes ~workload point =
  Run.spec ~schemes
    ~sim:(apply Sim.Config.default point)
    (Run.Benchmark workload)

let run ?(schemes = default_schemes) ?domains ~axes ~workloads () =
  let schemes =
    (* Base anchors every cell's normalized columns. *)
    if List.mem Scheme.Base schemes then schemes
    else Scheme.Base :: schemes
  in
  let ( let* ) = Result.bind in
  let points = expand axes in
  (* Every point's configuration is built before anything fans out, so a
     point that breaks a [Config] invariant is an error naming it. *)
  let* () =
    List.fold_left
      (fun acc point ->
        let* () = acc in
        match apply Sim.Config.default point with
        | _ -> Ok ()
        | exception Invalid_argument m ->
            Error
              (Run.Malformed_spec
                 (Printf.sprintf "sweep point %s: %s"
                    (point_to_string point) m)))
      (Ok ()) points
  in
  let tasks =
    List.concat_map
      (fun workload -> List.map (fun p -> (workload, p)) points)
      workloads
  in
  let ran =
    Pool.map ?domains
      (fun (workload, point) ->
        ( (workload, point),
          Run.exec_all (spec_of ~schemes ~workload point) ))
      tasks
  in
  List.fold_left
    (fun acc ((workload, point), r) ->
      let* acc = acc in
      let* results = r in
      Ok ({ workload; point; results } :: acc))
    (Ok []) ran
  |> Result.map (fun cells -> { axes; workloads; schemes; cells = List.rev cells })

let base_of cell = List.assoc Scheme.Base cell.results

(* Best cell per (workload, scheme): lowest absolute energy, ties to
   the earliest grid point (expansion order is deterministic). *)
let best outcome =
  List.concat_map
    (fun workload ->
      let cells =
        List.filter (fun c -> String.equal c.workload workload) outcome.cells
      in
      List.filter_map
        (fun scheme ->
          if scheme = Scheme.Base then None
          else
            List.fold_left
              (fun best cell ->
                let r = List.assoc scheme cell.results in
                match best with
                | Some (_, (b : Sim.Result.t)) when b.Sim.Result.energy <= r.Sim.Result.energy ->
                    best
                | _ -> Some (cell, r))
              None cells
            |> Option.map (fun (cell, r) -> (workload, scheme, cell, r)))
        outcome.schemes)
    outcome.workloads

(* Overall winner per workload: the implementable (non-ideal, non-Base)
   scheme x point with the lowest energy. *)
let winners outcome =
  List.filter_map
    (fun workload ->
      List.fold_left
        (fun acc (w, scheme, cell, (r : Sim.Result.t)) ->
          if
            (not (String.equal w workload))
            || Scheme.is_ideal scheme
            || scheme = Scheme.Base
          then acc
          else
            match acc with
            | Some (_, _, (b : Sim.Result.t)) when b.Sim.Result.energy <= r.Sim.Result.energy ->
                acc
            | _ -> Some (scheme, cell, r))
        None (best outcome))
    outcome.workloads

let best_spec outcome ~workload =
  List.find_map
    (fun (_scheme, cell, _) ->
      if String.equal cell.workload workload then
        Some (spec_of ~schemes:outcome.schemes ~workload cell.point)
      else None)
    (winners outcome)

(* Marginal sensitivity: for each axis value, the mean normalized
   energy of every non-Base scheme across all cells holding that value
   (marginalizing over workloads and the other axes). *)
let sensitivity outcome =
  let report_schemes =
    List.filter (fun s -> s <> Scheme.Base) outcome.schemes
  in
  List.concat_map
    (fun axis ->
      let name = axis_name axis in
      List.map
        (fun v ->
          let cells =
            List.filter
              (fun c ->
                match List.assoc_opt name c.point with
                | Some v' -> v' = v
                | None -> false)
              outcome.cells
          in
          let n = float_of_int (List.length cells) in
          let means =
            List.map
              (fun scheme ->
                let sum =
                  List.fold_left
                    (fun acc cell ->
                      let r = List.assoc scheme cell.results in
                      acc
                      +. Sim.Result.normalized_energy r ~base:(base_of cell))
                    0.0 cells
                in
                (scheme, if n > 0.0 then sum /. n else Float.nan))
              report_schemes
          in
          (name, v, means))
        (axis_values axis))
    outcome.axes

(* --- Reports --- *)

let point_json (p : point) =
  Json.Obj
    (List.map
       (fun (n, v) ->
         if String.equal n "sched" then
           ( n,
             Json.Str
               (Sim.Config.sched_name (sched_of_index (int_of_float v))) )
         else (n, Json.Float v))
       p)

let to_json outcome =
  let scheme_row cell (scheme, (r : Sim.Result.t)) =
    Json.Obj
      [
        ("scheme", Json.Str (Scheme.name scheme));
        ("energy_j", Json.Float r.Sim.Result.energy);
        ("exec_time_s", Json.Float r.Sim.Result.exec_time);
        ( "energy_norm",
          Json.Float (Sim.Result.normalized_energy r ~base:(base_of cell)) );
        ( "time_norm",
          Json.Float (Sim.Result.normalized_time r ~base:(base_of cell)) );
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ( "workloads",
        Json.Arr (List.map (fun w -> Json.Str w) outcome.workloads) );
      ( "axes",
        Json.Arr
          (List.map
             (fun axis ->
               Json.Obj
                 [
                   ("axis", Json.Str (axis_name axis));
                   ( "values",
                     match axis with
                     | Sched vs ->
                         Json.Arr
                           (List.map
                              (fun s -> Json.Str (Sim.Config.sched_name s))
                              vs)
                     | _ ->
                         Json.Arr
                           (List.map
                              (fun v -> Json.Float v)
                              (axis_values axis)) );
                 ])
             outcome.axes) );
      ( "schemes",
        Json.Arr
          (List.map (fun s -> Json.Str (Scheme.name s)) outcome.schemes) );
      ( "grid",
        Json.Arr
          (List.map
             (fun cell ->
               Json.Obj
                 [
                   ("workload", Json.Str cell.workload);
                   ("point", point_json cell.point);
                   ( "schemes",
                     Json.Arr (List.map (scheme_row cell) cell.results) );
                 ])
             outcome.cells) );
      ( "best",
        Json.Arr
          (List.map
             (fun (workload, scheme, cell, (r : Sim.Result.t)) ->
               Json.Obj
                 [
                   ("workload", Json.Str workload);
                   ("scheme", Json.Str (Scheme.name scheme));
                   ("point", point_json cell.point);
                   ("energy_j", Json.Float r.Sim.Result.energy);
                   ( "energy_norm",
                     Json.Float
                       (Sim.Result.normalized_energy r ~base:(base_of cell))
                   );
                   ( "time_norm",
                     Json.Float
                       (Sim.Result.normalized_time r ~base:(base_of cell)) );
                 ])
             (best outcome)) );
      ( "winners",
        Json.Arr
          (List.map
             (fun (scheme, cell, (r : Sim.Result.t)) ->
               Json.Obj
                 [
                   ("workload", Json.Str cell.workload);
                   ("scheme", Json.Str (Scheme.name scheme));
                   ("point", point_json cell.point);
                   ("energy_j", Json.Float r.Sim.Result.energy);
                 ])
             (winners outcome)) );
      ( "sensitivity",
        Json.Arr
          (List.map
             (fun (axis, v, means) ->
               Json.Obj
                 [
                   ("axis", Json.Str axis);
                   ("value", Json.Float v);
                   ( "mean_energy_norm",
                     Json.Obj
                       (List.map
                          (fun (s, m) -> (Scheme.name s, Json.Float m))
                          means) );
                 ])
             (sensitivity outcome)) );
    ]

let validate j =
  let errs = ref [] in
  let err m = errs := m :: !errs in
  (match Option.bind (Json.member "schema" j) Json.to_str with
  | Some v when String.equal v schema_version -> ()
  | Some v -> err (Printf.sprintf "schema: %S (expected %S)" v schema_version)
  | None -> err "schema: missing");
  (match Option.bind (Json.member "grid" j) Json.to_list with
  | None -> err "grid: missing"
  | Some [] -> err "grid: empty"
  | Some cells ->
      List.iteri
        (fun i cell ->
          let ctx = Printf.sprintf "grid[%d]" i in
          (match Option.bind (Json.member "workload" cell) Json.to_str with
          | Some _ -> ()
          | None -> err (ctx ^ ".workload: missing"));
          match Option.bind (Json.member "schemes" cell) Json.to_list with
          | None | Some [] -> err (ctx ^ ".schemes: missing or empty")
          | Some rows ->
              List.iteri
                (fun k row ->
                  List.iter
                    (fun field ->
                      match
                        Option.bind (Json.member field row) Json.to_float
                      with
                      | Some _ -> ()
                      | None ->
                          err
                            (Printf.sprintf "%s.schemes[%d].%s: missing" ctx
                               k field))
                    [ "energy_j"; "exec_time_s"; "energy_norm"; "time_norm" ])
                rows)
        cells);
  List.iter
    (fun section ->
      match Option.bind (Json.member section j) Json.to_list with
      | None -> err (section ^ ": missing")
      | Some _ -> ())
    [ "best"; "winners"; "sensitivity" ];
  match !errs with [] -> Ok () | errs -> Error (List.rev errs)

(* --- Text / markdown rendering --- *)

let render outcome =
  let b = Buffer.create 4096 in
  let npoints = List.length (expand outcome.axes) in
  Buffer.add_string b
    (Printf.sprintf "== Sweep: %d points x %d workloads, schemes: %s ==\n"
       npoints
       (List.length outcome.workloads)
       (String.concat ","
          (List.map Scheme.name outcome.schemes)));
  List.iter
    (fun axis ->
      Buffer.add_string b
        (Printf.sprintf "  axis %-19s %s\n" (axis_name axis)
           (String.concat ", "
              (List.map
                 (value_to_string (axis_name axis))
                 (axis_values axis)))))
    outcome.axes;
  Buffer.add_string b "\nBest configuration per workload x scheme:\n";
  Buffer.add_string b
    (Printf.sprintf "%-9s %-9s %12s %8s %8s  %s\n" "bench" "scheme"
       "energy(J)" "E/base" "T/base" "point");
  List.iter
    (fun (workload, scheme, cell, (r : Sim.Result.t)) ->
      Buffer.add_string b
        (Printf.sprintf "%-9s %-9s %12.2f %8.3f %8.3f  %s\n" workload
           (Scheme.name scheme) r.Sim.Result.energy
           (Sim.Result.normalized_energy r ~base:(base_of cell))
           (Sim.Result.normalized_time r ~base:(base_of cell))
           (point_to_string cell.point)))
    (best outcome);
  Buffer.add_string b "\nWinners (lowest-energy implementable scheme):\n";
  List.iter
    (fun (scheme, cell, (r : Sim.Result.t)) ->
      Buffer.add_string b
        (Printf.sprintf "%-9s %-9s %12.2f J  at %s\n" cell.workload
           (Scheme.name scheme) r.Sim.Result.energy
           (point_to_string cell.point)))
    (winners outcome);
  Buffer.add_string b "\nPer-axis sensitivity (mean E/base over the grid):\n";
  let report_schemes =
    List.filter (fun s -> s <> Scheme.Base) outcome.schemes
  in
  Buffer.add_string b (Printf.sprintf "%-19s %9s" "axis" "value");
  List.iter
    (fun s -> Buffer.add_string b (Printf.sprintf " %9s" (Scheme.name s)))
    report_schemes;
  Buffer.add_char b '\n';
  List.iter
    (fun (axis, v, means) ->
      Buffer.add_string b
        (Printf.sprintf "%-19s %9s" axis (value_to_string axis v));
      List.iter
        (fun (_, m) -> Buffer.add_string b (Printf.sprintf " %9.3f" m))
        means;
      Buffer.add_char b '\n')
    (sensitivity outcome);
  Buffer.contents b

let markdown outcome =
  let b = Buffer.create 4096 in
  Buffer.add_string b "# Parameter sweep\n\n";
  Buffer.add_string b
    (Printf.sprintf "- workloads: %s\n- schemes: %s\n"
       (String.concat ", " outcome.workloads)
       (String.concat ", " (List.map Scheme.name outcome.schemes)));
  List.iter
    (fun axis ->
      Buffer.add_string b
        (Printf.sprintf "- axis `%s`: %s\n" (axis_name axis)
           (String.concat ", "
              (List.map
                 (value_to_string (axis_name axis))
                 (axis_values axis)))))
    outcome.axes;
  Buffer.add_string b "\n## Best configuration\n\n";
  Buffer.add_string b
    "| bench | scheme | energy (J) | E/base | T/base | point |\n\
     |---|---|---|---|---|---|\n";
  List.iter
    (fun (workload, scheme, cell, (r : Sim.Result.t)) ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %s | %.2f | %.3f | %.3f | %s |\n" workload
           (Scheme.name scheme) r.Sim.Result.energy
           (Sim.Result.normalized_energy r ~base:(base_of cell))
           (Sim.Result.normalized_time r ~base:(base_of cell))
           (point_to_string cell.point)))
    (best outcome);
  Buffer.add_string b "\n## Winners\n\n";
  Buffer.add_string b "| bench | scheme | energy (J) | point |\n|---|---|---|---|\n";
  List.iter
    (fun (scheme, cell, (r : Sim.Result.t)) ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %s | %.2f | %s |\n" cell.workload
           (Scheme.name scheme) r.Sim.Result.energy
           (point_to_string cell.point)))
    (winners outcome);
  Buffer.add_string b "\n## Sensitivity (mean E/base)\n\n";
  let report_schemes =
    List.filter (fun s -> s <> Scheme.Base) outcome.schemes
  in
  Buffer.add_string b
    (Printf.sprintf "| axis | value | %s |\n|---|---|%s\n"
       (String.concat " | " (List.map Scheme.name report_schemes))
       (String.concat "" (List.map (fun _ -> "---|") report_schemes)));
  List.iter
    (fun (axis, v, means) ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %s | %s |\n" axis (value_to_string axis v)
           (String.concat " | "
              (List.map (fun (_, m) -> Printf.sprintf "%.3f" m) means))))
    (sensitivity outcome);
  Buffer.contents b

(* --- Shared normalized-matrix printer (Fig 3/4 shape) ---

   One row per workload, one column per scheme, values normalized to
   each row's Base, plus an AVG row — the format bin/tune.ml prints and
   the figure tables follow.  [extra] appends one more column computed
   per row (tune's misprediction%). *)
let normalized_table ~metric ~schemes ?extra rows =
  let b = Buffer.create 1024 in
  let value r ~base =
    match metric with
    | `Energy -> Sim.Result.normalized_energy r ~base
    | `Time -> Sim.Result.normalized_time r ~base
  in
  Buffer.add_string b (Printf.sprintf "%-9s" "bench");
  List.iter
    (fun s -> Buffer.add_string b (Printf.sprintf " %8s" (Scheme.name s)))
    schemes;
  (match extra with
  | Some (name, _) -> Buffer.add_string b (Printf.sprintf " %8s" name)
  | None -> ());
  Buffer.add_char b '\n';
  let sums = Array.make (List.length schemes) 0.0 in
  List.iter
    (fun (name, results) ->
      Buffer.add_string b (Printf.sprintf "%-9s" name);
      let base = List.assoc Scheme.Base results in
      List.iteri
        (fun i s ->
          let v = value (List.assoc s results) ~base in
          sums.(i) <- sums.(i) +. v;
          Buffer.add_string b (Printf.sprintf " %8.3f" v))
        schemes;
      (match extra with
      | Some (_, f) -> (
          match f name with
          | Some v -> Buffer.add_string b (Printf.sprintf " %8.2f" v)
          | None -> Buffer.add_string b (Printf.sprintf " %8s" "-"))
      | None -> ());
      Buffer.add_char b '\n')
    rows;
  let n = float_of_int (List.length rows) in
  if n > 0.0 then begin
    Buffer.add_string b (Printf.sprintf "%-9s" "AVG");
    Array.iter
      (fun s -> Buffer.add_string b (Printf.sprintf " %8.3f" (s /. n)))
      sums;
    Buffer.add_char b '\n'
  end;
  Buffer.contents b
