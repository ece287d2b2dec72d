module Sim = Dpm_sim
module Workloads = Dpm_workloads
module Trace = Dpm_trace.Trace

type workload =
  | Benchmark of string
  | Program of Dpm_ir.Program.t * Dpm_layout.Plan.t
  | Trace_file of string
  | Open_loop of { load : Dpm_trace.Openloop.t; sources : string list }

type error =
  | Unknown_benchmark of string
  | Unknown_scheme of string
  | Invalid_faults of string
  | Malformed_trace of string
  | Malformed_spec of string
  | Run_failure of string
  | Queue_full of { retry_after : float }
  | Shutting_down
  | Protocol_error of string

let suite_names =
  lazy (List.map (fun (s : Workloads.Suite.spec) -> s.name) Workloads.Suite.all)

let error_message = function
  | Unknown_benchmark b ->
      Printf.sprintf "unknown benchmark %S (expected one of: %s)" b
        (String.concat ", " (Lazy.force suite_names))
  | Unknown_scheme s ->
      Printf.sprintf "unknown scheme %S (expected one of: %s)" s
        (String.concat ", " Scheme.names)
  | Invalid_faults m -> "invalid fault spec: " ^ m
  | Malformed_trace m -> "malformed trace file: " ^ m
  | Malformed_spec m -> "malformed run spec: " ^ m
  | Run_failure m -> m
  | Queue_full { retry_after } ->
      Printf.sprintf "service queue full; retry after %gs" retry_after
  | Shutting_down -> "service is shutting down"
  | Protocol_error m -> "protocol error: " ^ m

type spec = {
  workload : workload;
  schemes : string list;
  setup : Experiment.setup;
  timeline : (Scheme.t -> Sim.Timeline.sink option) option;
}

let find_bench name =
  List.find_opt
    (fun (b : Workloads.Suite.spec) -> String.equal b.name name)
    Workloads.Suite.all

(* The setup a workload runs under by default: a benchmark keeps its
   calibrated compiler noise.  An unknown name falls back to the plain
   default; [validate] reports it. *)
let workload_setup = function
  | Benchmark name -> (
      match find_bench name with
      | Some b -> Experiment.make_setup ~noise:b.noise ()
      | None -> Experiment.default_setup)
  | Program _ | Trace_file _ | Open_loop _ -> Experiment.default_setup

let spec ?(schemes = Scheme.all) ?scheme_names ?setup ?sim ?mode ?version
    ?faults ?timeline ?stream ?batch ?core workload =
  let base = match setup with Some s -> s | None -> workload_setup workload in
  let ( |? ) o default = Option.value o ~default in
  {
    workload;
    schemes =
      (match scheme_names with
      | Some names -> names
      | None -> List.map Scheme.name schemes);
    setup =
      {
        base with
        Experiment.sim = sim |? base.sim;
        mode = mode |? base.mode;
        version = version |? base.version;
        faults = faults |? base.faults;
        stream = stream |? base.stream;
        batch = batch |? base.batch;
        core = core |? base.core;
      };
    timeline;
  }

let with_timeline timeline s = { s with timeline = Some timeline }
let sim_config s = s.setup.Experiment.sim

let ( let* ) = Result.bind

let schemes_of s =
  List.fold_left
    (fun acc name ->
      let* acc = acc in
      match Scheme.of_name_opt name with
      | Some scheme -> Ok (scheme :: acc)
      | None -> Error (Unknown_scheme name))
    (Ok []) s.schemes
  |> Result.map List.rev

(* The setup invariants a run relies on, checked before any work. *)
let check_setup (setup : Experiment.setup) =
  let bad fmt = Printf.ksprintf (fun m -> Error (Malformed_spec m)) fmt in
  if setup.batch < 1 then bad "batch must be >= 1 (got %d)" setup.batch
  else if setup.cache_blocks < 0 then
    bad "cache_blocks must be >= 0 (got %d)" setup.cache_blocks
  else if not (Float.is_finite setup.noise && setup.noise >= 0.0) then
    bad "noise must be finite and >= 0 (got %g)" setup.noise
  else Ok ()

(* ITPM and IDRPM are derived from the Base replay's busy intervals,
   which [retain_busy = false] leaves empty. *)
let check_oracles s =
  let oracle name =
    match Scheme.of_name_opt name with
    | Some (Scheme.Itpm | Scheme.Idrpm) -> true
    | Some _ | None -> false
  in
  if
    s.setup.Experiment.sim.Sim.Config.retain_busy
    || not (List.exists oracle s.schemes)
  then Ok ()
  else
    Error
      (Malformed_spec
         "setup.sim.retain_busy: must be true when the schemes include ITPM \
          or IDRPM (the oracles are derived from the Base replay's busy \
          intervals)")

let validate s =
  match Sim.Fault.validate s.setup.Experiment.faults with
  | Error m -> Error (Invalid_faults m)
  | Ok _ -> (
      let* () = check_setup s.setup in
      let* () = check_oracles s in
      match s.workload with
      | Benchmark name when find_bench name = None ->
          Error (Unknown_benchmark name)
      | Benchmark _ | Program _ | Trace_file _ | Open_loop _ -> Ok ())

let file_source setup path =
  Experiment.source setup
    ~fresh:(fun ~batch -> Trace.Stream.of_file ~batch path)
    ~whole:(fun () -> Trace.load path)

(* Open-loop sources resolve by name: a suite benchmark if the name
   matches one, otherwise an existing trace file.  Resolution happens
   before the trapped replay so a typo comes back as a typed error, not
   a generic failure. *)
let resolve_sources sources =
  if sources = [] then
    Error (Malformed_spec "open-loop workload: empty sources list")
  else
    List.fold_left
      (fun acc name ->
        let* acc = acc in
        match find_bench name with
        | Some bench -> Ok (`Bench bench :: acc)
        | None ->
            if Sys.file_exists name then Ok (`File name :: acc)
            else Error (Unknown_benchmark name))
      (Ok []) sources
    |> Result.map (fun l -> Array.of_list (List.rev l))

(* An open-loop multi-tenant stream: expand the load descriptor into a
   (start, source) plan and merge one fresh stream per tenant onto the
   shared clock ({!Dpm_trace.Openloop}).  Each distinct source is built
   at most once, on first use; tenants then draw from its
   {!Experiment.source}. *)
let open_loop_source setup load resolved =
  let source_of = function
    | `Bench bench ->
        let src =
          lazy
            (let p, plan = Experiment.workload bench in
             let p, plan =
               Dpm_compiler.Pipeline.transform setup.Experiment.version p plan
             in
             Experiment.generated setup p plan)
        in
        fun () -> Lazy.force src ()
    | `File path -> file_source setup path
  in
  let sources = Array.map source_of resolved in
  let plan = Dpm_trace.Openloop.plan load ~nsources:(Array.length sources) in
  fun () ->
    Dpm_trace.Openloop.merge ~batch:setup.Experiment.batch
      (Array.to_list plan
      |> List.map (fun (start, k) -> (start, sources.(k) ())))

let exec_all s =
  let* schemes = schemes_of s in
  let* () = validate s in
  let setup = s.setup and timeline = s.timeline in
  let run_all (p, plan) = Experiment.run_all ~setup ?timeline ~schemes p plan
  and replay_all source =
    Experiment.replay_all ~setup ?timeline ~schemes source
  in
  let* job =
    match s.workload with
    | Benchmark name ->
        Ok (fun () -> run_all (Experiment.workload (Workloads.Suite.find name)))
    | Program (p, plan) -> Ok (fun () -> run_all (p, plan))
    | Trace_file path -> Ok (fun () -> replay_all (file_source setup path))
    | Open_loop { load; sources } ->
        let* resolved = resolve_sources sources in
        Ok (fun () -> replay_all (open_loop_source setup load resolved))
  in
  match job () with
  | results -> Ok results
  | exception Trace.Parse_error m -> Error (Malformed_trace m)
  | exception Sys_error m -> Error (Run_failure m)
  | exception exn -> Error (Run_failure (Printexc.to_string exn))

let exec s =
  let* results = exec_all s in
  match results with
  | (_, r) :: _ -> Ok r
  | [] -> Error (Run_failure "no schemes requested")

let workload_label = function
  | Benchmark name -> name
  | Program (p, _) -> p.Dpm_ir.Program.name
  | Trace_file path -> path
  | Open_loop { sources; _ } ->
      Printf.sprintf "open-loop(%s)" (String.concat "+" sources)

let describe s =
  let* () = validate s in
  Ok (workload_label s.workload, s.setup)

let observe ?(run = exec_all) ?meter ?on_sample s =
  let* schemes = schemes_of s in
  let sinks = List.map (fun scheme -> (scheme, Sim.Timeline.sink ())) schemes in
  let cfg = s.setup.Experiment.sim in
  let meters =
    match meter with
    | None -> []
    | Some resolution ->
        List.map
          (fun (scheme, sink) ->
            let on_sample =
              Option.map (fun f -> f ~scheme:(Scheme.name scheme)) on_sample
            in
            let m =
              Sim.Meter.create ~resolution ~specs:cfg.Sim.Config.specs
                ~fleet:cfg.Sim.Config.fleet ?on_sample ()
            in
            Sim.Meter.attach m sink;
            (scheme, m))
          sinks
  in
  let* results = run (with_timeline (fun sc -> List.assoc_opt sc sinks) s) in
  List.iter (fun (_, m) -> Sim.Meter.finish m) meters;
  Ok (results, sinks, meters)

(* --- dpm-spec/1: serializable run specs ---

   A spec (minus its observational timeline sinks and minus [Program]
   workloads, which hold in-memory IR) round-trips through
   [Dpm_util.Json].  The wire format is the prerequisite for the sweep
   harness's replayable winning-point files and for the future `dpmsim
   serve` protocol (ROADMAP item 2): everything is by value, floats
   print with %.17g (bit-exact), and unknown optional fields default
   rather than fail so older readers survive newer writers. *)

module Json = Dpm_util.Json

let spec_schema_version = "dpm-spec/1"

(* The numeric knobs, keyed by their name with [_]: the [sim] object's
   fields between the explicit [sched] and [retain_busy]. *)
let numeric_knobs =
  let key k =
    String.map (function '-' -> '_' | c -> c) (Sim.Config.knob_name k)
  in
  List.filter_map
    (fun k -> if Sim.Config.value_names k = [] then Some (key k, k) else None)
    Sim.Config.knobs

let config_to_json (c : Sim.Config.t) =
  Json.Obj
    ([ ("specs", Json.Str c.Sim.Config.specs.Dpm_disk.Specs.model_name) ]
    (* Fleet and scheduler are emitted only away from their defaults, so
       pre-fleet specs serialize byte-identically. *)
    @ (match Array.to_list c.Sim.Config.fleet with
      | [] -> []
      | fleet ->
          [
            ( "fleet",
              Json.Arr
                (List.map
                   (fun m -> Json.Str (Dpm_disk.Specs.name_of m))
                   fleet) );
          ])
    @ (match c.Sim.Config.sched with
      | Sim.Config.Fcfs -> []
      | s -> [ ("sched", Json.Str (Sim.Config.sched_name s)) ])
    @ List.map
        (fun (key, k) ->
          ( key,
            match Sim.Config.get k c with
            | None -> Json.Null
            | Some v when Sim.Config.integral k -> Json.Int (int_of_float v)
            | Some v -> Json.Float v ))
        numeric_knobs
    @ [ ("retain_busy", Json.Bool c.Sim.Config.retain_busy) ])

let config_of_json ~at j =
  let resolve name =
    (* Registry lookup by slug or model name ({!Dpm_disk.Specs.of_name_opt}). *)
    match Dpm_disk.Specs.of_name_opt name with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "unknown disk model %S" name)
  in
  let* specs = Json.text ~at "specs" j in
  let* specs =
    match specs with
    | None -> Ok Sim.Config.default.Sim.Config.specs
    | Some name -> resolve name
  in
  let* fleet = Json.array ~at "fleet" j in
  let* fleet =
    match fleet with
    | None -> Ok [||]
    | Some l ->
        Dpm_util.Kv.all
          (fun v ->
            match Json.to_str v with
            | None -> Error (at ^ "fleet: expected model-name strings")
            | Some name -> resolve name)
          l
        |> Result.map Array.of_list
  in
  let* sched = Json.text ~at "sched" j in
  let* sched =
    match sched with
    | None -> Ok Sim.Config.Fcfs
    | Some s -> (
        match Sim.Config.sched_of_name_opt s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "unknown scheduler %S" s))
  in
  (* A knob that is unset by default (tpm_threshold: break-even) reads
     [null] as unset. *)
  let* settings =
    Dpm_util.Kv.all
      (fun (key, k) ->
        let* v =
          match Json.member key j with
          | Some Json.Null when Sim.Config.get k Sim.Config.default = None ->
              Ok None
          | _ when Sim.Config.integral k ->
              Result.map (Option.map float_of_int) (Json.integer ~at key j)
          | _ -> Json.number ~at key j
        in
        Ok (Option.map (fun v -> (k, v)) v))
      numeric_knobs
  in
  let* retain_busy = Json.boolean ~at "retain_busy" j in
  (* [Config.update] enforces the invariants; a violation is a bad
     document, not an exception. *)
  match
    Sim.Config.update
      (List.filter_map Fun.id settings)
      (Sim.Config.make ~specs ~fleet ~sched ?retain_busy ())
  with
  | c -> Ok c
  | exception Invalid_argument m -> Error m

let modes = [ ("open", `Open); ("closed", `Closed) ]
let cores = [ ("fast", `Fast); ("reference", `Reference) ]
let name_in table v = fst (List.find (fun (_, x) -> x = v) table)

let version_of_name name =
  match String.lowercase_ascii name with
  | "lfdl" -> Some Dpm_compiler.Pipeline.LF_DL
  | "tldl" -> Some Dpm_compiler.Pipeline.TL_DL
  | n ->
      List.find_opt
        (fun v ->
          String.equal
            (String.lowercase_ascii (Dpm_compiler.Pipeline.version_name v))
            n)
        (Dpm_compiler.Pipeline.all_versions
        @ [ Dpm_compiler.Pipeline.TL_ALL_DL ])

let setup_to_json (setup : Experiment.setup) =
  Json.Obj
    [
      ("sim", config_to_json setup.Experiment.sim);
      ("mode", Json.Str (name_in modes setup.Experiment.mode));
      ("cache_blocks", Json.Int setup.Experiment.cache_blocks);
      ("noise", Json.Float setup.Experiment.noise);
      ("seed", Json.Int setup.Experiment.seed);
      ( "version",
        Json.Str (Dpm_compiler.Pipeline.version_name setup.Experiment.version)
      );
      ("faults", Json.Str (Sim.Fault.to_string setup.Experiment.faults));
      ("stream", Json.Bool setup.Experiment.stream);
      ("batch", Json.Int setup.Experiment.batch);
      ("core", Json.Str (name_in cores setup.Experiment.core));
    ]

(* The one reader of setup fields: those present in [j] replace their
   field of [base].  It reads a document's "setup" object ([at] is
   ["setup."]) and, for documents written before the whole setup was,
   its top-level overrides ([at] is [""]). *)
let setup_fields ~at (base : Experiment.setup) j =
  let malformed r = Result.map_error (fun m -> Malformed_spec m) r in
  let get (read : _ Json.field) name default =
    let* v = malformed (read ~at name j) in
    Ok (Option.value v ~default)
  in
  let enum name of_name default =
    let* v = malformed (Json.text ~at name j) in
    match v with
    | None -> Ok default
    | Some v -> (
        match of_name v with
        | Some x -> Ok x
        | None ->
            Error (Malformed_spec (Printf.sprintf "unknown %s %S" name v)))
  in
  let* sim = malformed (Json.obj ~at "sim" j) in
  let* sim =
    match sim with
    | None -> Ok base.sim
    | Some c -> malformed (config_of_json ~at:(at ^ "sim.") c)
  in
  let* mode = enum "mode" (fun n -> List.assoc_opt n modes) base.mode in
  let* version = enum "version" version_of_name base.version in
  let* core = enum "core" (fun n -> List.assoc_opt n cores) base.core in
  let* faults = malformed (Json.text ~at "faults" j) in
  let* faults =
    match faults with
    | None -> Ok base.faults
    | Some v ->
        Result.map_error (fun m -> Invalid_faults m) (Sim.Fault.of_string v)
  in
  let* cache_blocks = get Json.integer "cache_blocks" base.cache_blocks in
  let* noise = get Json.number "noise" base.noise in
  let* seed = get Json.integer "seed" base.seed in
  let* stream = get Json.boolean "stream" base.stream in
  let* batch = get Json.integer "batch" base.batch in
  Ok
    {
      Experiment.sim;
      mode;
      cache_blocks;
      noise;
      seed;
      version;
      faults;
      stream;
      batch;
      core;
    }

let strings what l =
  let none = what ^ ": expected strings" in
  Dpm_util.Kv.all (fun v -> Option.to_result ~none (Json.to_str v)) l
  |> Result.map_error (fun m -> Malformed_spec m)

let to_json s =
  let* workload =
    match s.workload with
    | Benchmark name ->
        Ok
          (Json.Obj
             [ ("kind", Json.Str "benchmark"); ("name", Json.Str name) ])
    | Trace_file path ->
        Ok
          (Json.Obj
             [ ("kind", Json.Str "trace-file"); ("path", Json.Str path) ])
    | Open_loop { load; sources } ->
        Ok
          (Json.Obj
             [
               ("kind", Json.Str "open-loop");
               ("load", Json.Str (Dpm_trace.Openloop.to_string load));
               ( "sources",
                 Json.Arr (List.map (fun n -> Json.Str n) sources) );
             ])
    | Program (p, _) ->
        Error
          (Malformed_spec
             (Printf.sprintf
                "in-memory Program workload %S is not serializable"
                p.Dpm_ir.Program.name))
  in
  Ok
    (Json.Obj
       [
         ("schema", Json.Str spec_schema_version);
         ("workload", workload);
         ("schemes", Json.Arr (List.map (fun n -> Json.Str n) s.schemes));
         ("setup", setup_to_json s.setup);
       ])

let of_json j =
  let malformed m = Error (Malformed_spec m) in
  let* () =
    match Option.bind (Json.member "schema" j) Json.to_str with
    | Some v when String.equal v spec_schema_version -> Ok ()
    | Some v ->
        malformed
          (Printf.sprintf "schema %S (expected %S)" v spec_schema_version)
    | None -> malformed "missing schema field"
  in
  let* workload =
    match Json.member "workload" j with
    | None -> malformed "missing workload"
    | Some w -> (
        let str name = Option.bind (Json.member name w) Json.to_str in
        match Option.bind (Json.member "kind" w) Json.to_str with
        | Some "benchmark" -> (
            match str "name" with
            | Some n -> Ok (Benchmark n)
            | None -> malformed "workload: missing benchmark name")
        | Some "trace-file" -> (
            match str "path" with
            | Some p -> Ok (Trace_file p)
            | None -> malformed "workload: missing trace-file path")
        | Some "open-loop" -> (
            match str "load" with
            | None -> malformed "workload: missing open-loop load"
            | Some l -> (
                match Dpm_trace.Openloop.of_string l with
                | Error m -> malformed m
                | Ok (load, inline_sources) ->
                    (* An explicit sources array wins over sources
                       embedded in the load string. *)
                    let* sources =
                      match Json.array ~at:"workload." "sources" w with
                      | Error m -> malformed m
                      | Ok None -> Ok inline_sources
                      | Ok (Some l) -> strings "workload: sources" l
                    in
                    Ok (Open_loop { load; sources })))
        | Some k -> malformed (Printf.sprintf "workload: unknown kind %S" k)
        | None -> malformed "workload: missing kind")
  in
  let* schemes =
    match Option.bind (Json.member "schemes" j) Json.to_list with
    | None -> malformed "missing schemes array"
    | Some [] -> malformed "schemes: empty array"
    | Some l -> strings "schemes" l
  in
  (* The "setup" object reads over the plain default, as it was written;
     top-level fields then override whichever base applies. *)
  let* setup =
    match Json.obj ~at:"" "setup" j with
    | Error m -> malformed m
    | Ok None -> Ok (workload_setup workload)
    | Ok (Some sj) -> setup_fields ~at:"setup." Experiment.default_setup sj
  in
  let* setup = setup_fields ~at:"" setup j in
  let* () = check_setup setup in
  Ok { workload; schemes; setup; timeline = None }

let of_file path =
  match
    let ic = open_in path in
    let n = in_channel_length ic in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic n)
  with
  | exception Sys_error m -> Error (Malformed_spec m)
  | contents -> (
      match Json.parse_string contents with
      | Error m -> Error (Malformed_spec (path ^ ": " ^ m))
      | Ok j -> of_json j)

(* Typed errors on the wire: a stable machine-readable kind plus the
   fields needed to reconstruct the constructor, and the human message
   for clients that just print.  Round-trip is exact. *)
let error_to_json e =
  let obj kind rest =
    Json.Obj
      ((("error", Json.Str kind) :: rest)
      @ [ ("message", Json.Str (error_message e)) ])
  in
  match e with
  | Unknown_benchmark b -> obj "unknown-benchmark" [ ("name", Json.Str b) ]
  | Unknown_scheme s -> obj "unknown-scheme" [ ("name", Json.Str s) ]
  | Invalid_faults m -> obj "invalid-faults" [ ("detail", Json.Str m) ]
  | Malformed_trace m -> obj "malformed-trace" [ ("detail", Json.Str m) ]
  | Malformed_spec m -> obj "malformed-spec" [ ("detail", Json.Str m) ]
  | Run_failure m -> obj "run-failure" [ ("detail", Json.Str m) ]
  | Queue_full { retry_after } ->
      obj "queue-full" [ ("retry_after", Json.Float retry_after) ]
  | Shutting_down -> obj "shutting-down" []
  | Protocol_error m -> obj "protocol" [ ("detail", Json.Str m) ]

let error_of_json j =
  let str name = Option.bind (Json.member name j) Json.to_str in
  let detail of_detail =
    match str "detail" with
    | Some d -> Ok (of_detail d)
    | None -> Error "error object: missing detail"
  in
  match str "error" with
  | None -> Error "not an error object (missing \"error\" field)"
  | Some kind -> (
      match kind with
      | "unknown-benchmark" -> (
          match str "name" with
          | Some n -> Ok (Unknown_benchmark n)
          | None -> Error "unknown-benchmark: missing name")
      | "unknown-scheme" -> (
          match str "name" with
          | Some n -> Ok (Unknown_scheme n)
          | None -> Error "unknown-scheme: missing name")
      | "invalid-faults" -> detail (fun m -> Invalid_faults m)
      | "malformed-trace" -> detail (fun m -> Malformed_trace m)
      | "malformed-spec" -> detail (fun m -> Malformed_spec m)
      | "run-failure" -> detail (fun m -> Run_failure m)
      | "queue-full" -> (
          match Option.bind (Json.member "retry_after" j) Json.to_float with
          | Some retry_after -> Ok (Queue_full { retry_after })
          | None -> Error "queue-full: missing retry_after")
      | "shutting-down" -> Ok Shutting_down
      | "protocol" -> detail (fun m -> Protocol_error m)
      | k -> Error (Printf.sprintf "unknown error kind %S" k))

let to_file s path =
  let* j = to_json s in
  match open_out path with
  | exception Sys_error m -> Error (Malformed_spec m)
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          Json.to_channel ~indent:1 oc j;
          output_char oc '\n');
      Ok ()
