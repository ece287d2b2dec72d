(* The per-layer ledger.  A BENCH_<pr>.json file records, for each batch
   workload, what perfbench's traced run printed: its final JSON line
   and its deterministic per-layer counts (calls, events and minor
   words per layer).  One file per change keeps the trajectory in the
   repository.

   Usage, where OUT is the standard output of
     bash perfbench/run.sh --workload WORKLOAD --seed 1 --trace 1
   and CONTEXT is a file of lines printed by [ledger.exe time]:

     ledger.exe time NAME CMD ARG ...      runs CMD (output discarded)
                                           and prints NAME and its wall
                                           seconds
     ledger.exe write PR CONTEXT WORKLOAD=OUT ...
                                           prints BENCH_<PR>.json
     ledger.exe check DIR CONTEXT WORKLOAD=OUT ...
                                           compares against the newest
                                           BENCH_<n>.json in DIR

   The check fails when a layer's call or event count changed (the
   pipeline did different work) or when its minor words per event —
   per call, for a layer with no events — rose by more than 2%.  Layer
   times and the whole-system wall times of the context are printed
   beside the committed ones but not gated: the host's speed varies run
   to run. *)

module Json = Dpm_util.Json

type layer = { calls : int; events : int; words : int }

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

(* "  NAME calls=N events=N words=N" lines after the block header. *)
let parse_layers lines =
  let rec skip = function
    | [] -> []
    | l :: rest ->
        if String.trim l = "per-layer counts (deterministic):" then rest
        else skip rest
  in
  let rec take acc = function
    | l :: rest -> (
        match
          Scanf.sscanf l " %s calls=%d events=%d words=%d%!" (fun n c e w ->
              (n, { calls = c; events = e; words = w }))
        with
        | entry -> take (entry :: acc) rest
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
            List.rev acc)
    | [] -> List.rev acc
  in
  take [] (skip lines)

let read_run spec =
  let workload, path =
    match String.index_opt spec '=' with
    | Some i ->
        (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
    | None -> fail "ledger: expected WORKLOAD=FILE, got %s" spec
  in
  let lines =
    try In_channel.with_open_text path In_channel.input_lines
    with Sys_error e -> fail "ledger: %s" e
  in
  let result =
    match
      List.find_opt
        (fun l -> String.length l > 0 && l.[0] = '{')
        (List.rev lines)
    with
    | None -> fail "ledger: %s: no final JSON line" path
    | Some l -> (
        match Json.parse_string l with
        | Ok j -> j
        | Error e -> fail "ledger: %s: final line: %s" path e)
  in
  match parse_layers lines with
  | [] -> fail "ledger: %s: no per-layer counts block (run with --trace 1)" path
  | layers -> (workload, result, layers)

(* Whole-system timings: one "NAME SECONDS" line per run. *)
let time name argv =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = Unix.gettimeofday () in
  let status =
    match Unix.create_process argv.(0) argv Unix.stdin devnull Unix.stderr with
    | pid -> snd (Unix.waitpid [] pid)
    | exception Unix.Unix_error (e, _, _) ->
        fail "ledger: %s: %s" argv.(0) (Unix.error_message e)
  in
  let wall = Unix.gettimeofday () -. t0 in
  Unix.close devnull;
  if status <> Unix.WEXITED 0 then fail "ledger: %s: command failed" name;
  Printf.printf "%s %.3f\n" name wall

let read_context path =
  (try In_channel.with_open_text path In_channel.input_lines
   with Sys_error e -> fail "ledger: %s" e)
  |> List.map (fun l ->
         try Scanf.sscanf l "%s %f%!" (fun n t -> (n, t))
         with Scanf.Scan_failure _ | End_of_file | Failure _ ->
           fail "ledger: %s: expected NAME SECONDS, got %S" path l)

let context_json context =
  Json.Obj
    (List.map (fun (n, t) -> (n, Json.Obj [ ("wall_s", Json.Float t) ]))
       context)

let layer_json { calls; events; words } =
  Json.Obj [ ("calls", Json.Int calls); ("events", Json.Int events); ("words", Json.Int words) ]

let write pr context runs =
  Json.Obj
    [
      ("schema", Json.Str "dpm-ledger/1");
      ("pr", Json.Int pr);
      ("context", context_json context);
      ( "workloads",
        Json.Obj
          (List.map
             (fun (workload, result, layers) ->
               ( workload,
                 Json.Obj
                   [
                     ("result", result);
                     ( "layers",
                       Json.Obj (List.map (fun (n, l) -> (n, layer_json l)) layers) );
                   ] ))
             runs) );
    ]
  |> Json.to_string ~indent:2 |> print_endline

(* The BENCH file with the highest number in [dir]. *)
let newest dir =
  (try Sys.readdir dir with Sys_error e -> fail "ledger: %s" e)
  |> Array.to_list
  |> List.filter_map (fun f ->
         Scanf.sscanf_opt f "BENCH_%d.json%!" (fun n -> (n, Filename.concat dir f)))
  |> List.sort compare |> List.rev
  |> function
  | [] -> fail "ledger: no BENCH_*.json in %s" dir
  | (_, path) :: _ -> path

let get path keys j =
  List.fold_left
    (fun j k ->
      match Json.member k j with
      | Some v -> v
      | None -> fail "ledger: %s: missing %s" path (String.concat "." keys))
    j keys

let int_of path what j =
  match Json.to_int j with Some n -> n | None -> fail "ledger: %s: %s not an int" path what

let layer_time result name =
  Option.bind (Json.member "metrics" result) (fun m ->
      Option.bind (Json.member (name ^ "_s") m) (fun v ->
          Option.bind (Json.member "value" v) Json.to_float))

let check dir context runs =
  let path = newest dir in
  let ledger =
    match
      Json.parse_string
        (try In_channel.with_open_text path In_channel.input_all
         with Sys_error e -> fail "ledger: %s" e)
    with
    | Ok j -> j
    | Error e -> fail "ledger: %s: %s" path e
  in
  Printf.printf "ledger: against %s\n" path;
  print_endline "context (ledger, then now; wall seconds, not gated)";
  List.iter
    (fun (name, now) ->
      let committed =
        Option.bind (Json.member "context" ledger) (fun c ->
            Option.bind (Json.member name c) (fun e ->
                Option.bind (Json.member "wall_s" e) Json.to_float))
      in
      Printf.printf "  %-22s %9s %9.3f\n" name
        (match committed with Some t -> Printf.sprintf "%.3f" t | None -> "-")
        now)
    context;
  let failures = ref 0 in
  let problem fmt =
    incr failures;
    Printf.printf ("  FAIL " ^^ fmt ^^ "\n")
  in
  List.iter
    (fun (workload, result, layers) ->
      let base = get path [ "workloads"; workload ] ledger in
      let base_layers =
        match get path [ "workloads"; workload; "layers" ] ledger with
        | Json.Obj fields ->
            List.map
              (fun (n, l) ->
                let field k = int_of path (n ^ "." ^ k) (get path [ k ] l) in
                (n, { calls = field "calls"; events = field "events"; words = field "words" }))
              fields
        | _ -> fail "ledger: %s: %s.layers is not an object" path workload
      in
      let base_result = get path [ "result" ] base in
      Printf.printf "%s (ledger, then now)\n  %-22s %13s %13s %21s %19s\n" workload
        "layer" "calls" "events" "words/event|call" "s/job";
      let names =
        List.sort_uniq compare (List.map fst base_layers @ List.map fst layers)
      in
      List.iter
        (fun name ->
          match (List.assoc_opt name base_layers, List.assoc_opt name layers) with
          | None, Some _ -> problem "%s %s: new layer" workload name
          | Some _, None -> problem "%s %s: layer gone" workload name
          | None, None -> ()
          | Some b, Some l ->
              let per { calls; events; words } =
                float_of_int words /. float_of_int (max 1 (if events > 0 then events else calls))
              in
              let time r =
                match layer_time r name with
                | Some t -> Printf.sprintf "%.4g" t
                | None -> "-"
              in
              Printf.printf "  %-22s %6d %6d %6d %6d %10.1f %10.1f %9s %9s\n" name
                b.calls l.calls b.events l.events
                (per b) (per l) (time base_result) (time result);
              if l.calls <> b.calls then
                problem "%s %s: calls %d, ledger has %d" workload name l.calls b.calls;
              if l.events <> b.events then
                problem "%s %s: events %d, ledger has %d" workload name l.events
                  b.events;
              if per l > per b *. 1.02 then
                problem "%s %s: %.1f words per %s, ledger has %.1f (+%.1f%%)"
                  workload name (per l)
                  (if l.events > 0 then "event" else "call")
                  (per b)
                  (100.0 *. ((per l /. per b) -. 1.0)))
        names)
    runs;
  if !failures > 0 then begin
    Printf.printf "ledger: %d check(s) failed against %s\n" !failures path;
    exit 1
  end
  else print_endline "ledger: counts ok"

let () =
  match Array.to_list Sys.argv with
  | _ :: "time" :: name :: (_ :: _ as argv) -> time name (Array.of_list argv)
  | _ :: "write" :: pr :: context :: (_ :: _ as runs) -> (
      match int_of_string_opt pr with
      | Some pr -> write pr (read_context context) (List.map read_run runs)
      | None -> fail "ledger: PR must be a number, got %s" pr)
  | _ :: "check" :: dir :: context :: (_ :: _ as runs) ->
      check dir (read_context context) (List.map read_run runs)
  | _ ->
      fail
        "usage: ledger.exe time NAME CMD ARG ... | ledger.exe write PR CONTEXT \
         WORKLOAD=OUT ... | ledger.exe check DIR CONTEXT WORKLOAD=OUT ..."
