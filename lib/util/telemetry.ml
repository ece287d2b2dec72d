external now : unit -> float = "dpm_metrics_monotonic_s"

type span = {
  id : int;
  parent : int;
  track : int;
  name : string;
  t0 : float;
  t1 : float;
  args : (string * string) list;
}

type stage = { mutable total : float; mutable calls : int }

type t = {
  mutex : Mutex.t;
  stages : (string, stage) Hashtbl.t;
  counters : (string, int ref) Hashtbl.t;
  mutable completed : span list; (* reverse completion order *)
  histos : (string, Histo.t) Hashtbl.t;
  next_id : int Atomic.t;
  mutable on : bool;
  mutable on_tracing : bool;
  mutable on_histograms : bool;
}

(* The innermost open span id on the current domain: hierarchical
   parents never cross domains, so domain-local state is exactly the
   right scope (a Pool worker's jobs are roots on its own track). *)
let current_parent : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let create () =
  {
    mutex = Mutex.create ();
    stages = Hashtbl.create 16;
    counters = Hashtbl.create 16;
    completed = [];
    histos = Hashtbl.create 16;
    next_id = Atomic.make 0;
    on = false;
    on_tracing = false;
    on_histograms = false;
  }

let global = create ()
let set_enabled t b = t.on <- b
let enabled t = t.on
let set_tracing t b = t.on_tracing <- b
let tracing t = t.on_tracing
let set_histograms t b = t.on_histograms <- b
let histograms_enabled t = t.on_histograms

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* The stage row and the span record are both written at close, under
   one lock acquisition: the switches are read once at open, so a span
   that straddles a switch flip is either fully recorded or not at
   all. *)
let span ?args t name f =
  let on = t.on and tracing = t.on_tracing in
  if not (on || tracing) then f ()
  else begin
    let parent = Domain.DLS.get current_parent in
    let id = if tracing then Atomic.fetch_and_add t.next_id 1 else -1 in
    if tracing then Domain.DLS.set current_parent id;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        let record =
          if not tracing then None
          else begin
            Domain.DLS.set current_parent parent;
            let track = (Domain.self () :> int) in
            let args = match args with None -> [] | Some f -> f () in
            Some { id; parent; track; name; t0; t1; args }
          end
        in
        let dt = t1 -. t0 in
        locked t (fun () ->
            if on then begin
              match Hashtbl.find_opt t.stages name with
              | Some s ->
                  s.total <- s.total +. dt;
                  s.calls <- s.calls + 1
              | None -> Hashtbl.add t.stages name { total = dt; calls = 1 }
            end;
            Option.iter (fun r -> t.completed <- r :: t.completed) record))
      f
  end

let add t name n =
  if t.on then
    locked t (fun () ->
        match Hashtbl.find_opt t.counters name with
        | Some r -> r := !r + n
        | None -> Hashtbl.add t.counters name (ref n))

let observe t name x =
  if t.on_histograms then
    locked t (fun () ->
        match Hashtbl.find_opt t.histos name with
        | Some h -> Histo.add h x
        | None ->
            let h = Histo.create () in
            Histo.add h x;
            Hashtbl.add t.histos name h)

let merge_histogram t name src =
  if t.on_histograms then
    locked t (fun () ->
        match Hashtbl.find_opt t.histos name with
        | Some h -> Histo.merge_into ~into:h src
        | None -> Hashtbl.add t.histos name (Histo.copy src))

let by_name key l = List.sort (fun a b -> String.compare (key a) (key b)) l

let stages t =
  locked t (fun () ->
      Hashtbl.fold (fun k s acc -> (k, s.total, s.calls) :: acc) t.stages [])
  |> by_name (fun (n, _, _) -> n)

let counters t =
  locked t (fun () -> Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.counters [])
  |> by_name fst

let spans t =
  locked t (fun () -> t.completed)
  |> List.sort (fun a b -> compare a.id b.id)

let histograms t =
  locked t (fun () ->
      Hashtbl.fold (fun k h acc -> (k, Histo.copy h) :: acc) t.histos [])
  |> by_name fst

let reset t =
  locked t (fun () ->
      Hashtbl.reset t.stages;
      Hashtbl.reset t.counters;
      t.completed <- [];
      Hashtbl.reset t.histos)

(* --- rendering --- *)

(* Conventional counter/stage pairs reported as throughputs. *)
let throughputs =
  [
    ("requests simulated/s", "sim.requests", "sim.replay");
    ("trace events generated/s", "trace.events", "trace.gen");
  ]

let report t =
  let stages = stages t and counters = counters t in
  if stages = [] && counters = [] then ""
  else begin
    let buf = Buffer.create 256 in
    (if stages <> [] then begin
       let tbl =
         Table.create
           ~title:"Metrics: per-stage wall time"
           ~columns:
             [
               ("stage", Table.Left);
               ("calls", Table.Right);
               ("total(s)", Table.Right);
               ("mean(ms)", Table.Right);
             ]
       in
       (* Already name-sorted: rows must not depend on merge order or
          relative timings, so --metrics output is stable across
          --domains values. *)
       List.iter
         (fun (name, total, calls) ->
           Table.add_row tbl
             [
               name;
               string_of_int calls;
               Table.cell_f3 total;
               Table.cell_f3 (1000.0 *. total /. float_of_int calls);
             ])
         stages;
       Buffer.add_string buf (Table.render tbl)
     end);
    (if counters <> [] then begin
       let tbl =
         Table.create
           ~title:"Metrics: counters"
           ~columns:[ ("counter", Table.Left); ("value", Table.Right) ]
       in
       List.iter
         (fun (name, v) -> Table.add_row tbl [ name; string_of_int v ])
         counters;
       Buffer.add_char buf '\n';
       Buffer.add_string buf (Table.render tbl)
     end);
    let total stage =
      List.find_map
        (fun (name, total, _) -> if name = stage then Some total else None)
        stages
    in
    List.iter
      (fun (label, counter, stage) ->
        match (List.assoc_opt counter counters, total stage) with
        | Some n, Some dt when n <> 0 && dt > 0.0 ->
            Buffer.add_string buf
              (Printf.sprintf "%s: %.0f\n" label (float_of_int n /. dt))
        | _ -> ())
      throughputs;
    Buffer.contents buf
  end

let qty = Printf.sprintf "%.6g"

let histogram_report t =
  match histograms t with
  | [] -> ""
  | hs ->
      let tbl =
        Table.create ~title:"Histograms"
          ~columns:
            [
              ("histogram", Table.Left);
              ("count", Table.Right);
              ("mean", Table.Right);
              ("p50", Table.Right);
              ("p90", Table.Right);
              ("p99", Table.Right);
              ("max", Table.Right);
            ]
      in
      List.iter
        (fun (name, h) ->
          Table.add_row tbl
            [
              name;
              string_of_int (Histo.count h);
              qty (Histo.mean h);
              qty (Histo.quantile h 50.0);
              qty (Histo.quantile h 90.0);
              qty (Histo.quantile h 99.0);
              qty (Histo.max_value h);
            ])
        hs;
      Table.render tbl
(* --- Chrome trace export ---

   Events are emitted by a tree walk per track (children under their
   recorded parent, siblings in start order), so B/E pairs nest
   correctly by construction even when float timestamps tie. *)

let chrome_json t =
  let all = spans t in
  let t_min =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity all
  in
  let us x = (x -. t_min) *. 1e6 in
  let args_json args =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)
  in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let key = s.parent in
      Hashtbl.replace children key
        (s :: (Option.value ~default:[] (Hashtbl.find_opt children key))))
    (List.rev all);
  (* reversed iteration + cons keeps child lists in start (id) order *)
  let events = ref [] in
  let emit ev = events := ev :: !events in
  let rec walk (s : span) =
    emit
      (Json.Obj
         [
           ("name", Json.Str s.name);
           ("cat", Json.Str "dpm");
           ("ph", Json.Str "B");
           ("ts", Json.Float (us s.t0));
           ("pid", Json.Int 1);
           ("tid", Json.Int s.track);
           ("args", args_json s.args);
         ]);
    List.iter walk (Option.value ~default:[] (Hashtbl.find_opt children s.id));
    emit
      (Json.Obj
         [
           ("ph", Json.Str "E");
           ("name", Json.Str s.name);
           ("ts", Json.Float (us s.t1));
           ("pid", Json.Int 1);
           ("tid", Json.Int s.track);
         ])
  in
  let tracks =
    List.sort_uniq compare (List.map (fun s -> s.track) all)
  in
  emit
    (Json.Obj
       [
         ("ph", Json.Str "M");
         ("name", Json.Str "process_name");
         ("pid", Json.Int 1);
         ("tid", Json.Int 0);
         ("args", Json.Obj [ ("name", Json.Str "dpm") ]);
       ]);
  List.iter
    (fun track ->
      emit
        (Json.Obj
           [
             ("ph", Json.Str "M");
             ("name", Json.Str "thread_name");
             ("pid", Json.Int 1);
             ("tid", Json.Int track);
             ("args",
              Json.Obj [ ("name", Json.Str (Printf.sprintf "domain-%d" track)) ]);
           ]))
    tracks;
  (* Roots: parent span never recorded on this collector (crossed a
     Pool boundary or genuinely top-level). *)
  let known = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace known s.id ()) all;
  List.iter
    (fun s -> if s.parent < 0 || not (Hashtbl.mem known s.parent) then walk s)
    all;
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.rev !events));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write_chrome_trace t oc =
  Json.to_channel ~indent:1 oc (chrome_json t);
  output_char oc '\n'

let validate_chrome doc =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (match Option.bind (Json.member "traceEvents" doc) Json.to_list with
  | None -> err "no traceEvents array"
  | Some [] -> err "traceEvents is empty"
  | Some events ->
      let stacks : (int * int, (string * Json.t) list ref) Hashtbl.t =
        Hashtbl.create 8
      in
      let durations = ref 0 in
      List.iteri
        (fun i ev ->
          let str k = Option.bind (Json.member k ev) Json.to_str in
          let int k = Option.bind (Json.member k ev) Json.to_int in
          let num k = Option.bind (Json.member k ev) Json.to_float in
          match (str "ph", int "pid", int "tid") with
          | None, _, _ -> err "event %d: missing ph" i
          | _, None, _ | _, _, None -> err "event %d: missing pid/tid" i
          | Some ph, Some pid, Some tid -> (
              let key = (pid, tid) in
              let stack =
                match Hashtbl.find_opt stacks key with
                | Some s -> s
                | None ->
                    let s = ref [] in
                    Hashtbl.add stacks key s;
                    s
              in
              match ph with
              | "B" -> (
                  incr durations;
                  match (str "name", num "ts") with
                  | Some name, Some _ -> stack := (name, ev) :: !stack
                  | _ -> err "event %d: B without name/ts" i)
              | "E" -> (
                  incr durations;
                  match !stack with
                  | [] -> err "event %d: E with empty stack on tid %d" i tid
                  | (open_name, _) :: rest ->
                      (match str "name" with
                      | Some name when name <> open_name ->
                          err "event %d: E %S closes B %S" i name open_name
                      | _ -> ());
                      stack := rest)
              | "M" -> ()
              | ph -> err "event %d: unsupported phase %S" i ph))
        events;
      if !durations = 0 then err "no B/E duration events";
      Hashtbl.iter
        (fun (_, tid) stack ->
          match !stack with
          | [] -> ()
          | open_spans ->
              err "tid %d: %d unclosed B event(s) (%s)" tid
                (List.length open_spans)
                (String.concat ", " (List.map fst open_spans)))
        stacks);
  match !errors with [] -> Ok () | es -> Error (List.rev es)
