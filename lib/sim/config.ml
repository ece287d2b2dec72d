(* Per-disk request-queue service order.  Defined here (not in Sched)
   so Config stays dependency-free; Sched owns the names and the
   dispatch machinery. *)
type sched = Fcfs | Sstf | Scan | Clook | Sstf_remap

(* Canonical scheduler names, shared by the CLI, the run-spec JSON and
   the timeline export. *)
let sched_names =
  [
    ("fcfs", Fcfs);
    ("sstf", Sstf);
    ("scan", Scan);
    ("c-look", Clook);
    ("sstf-remap", Sstf_remap);
  ]

let sched_name s = fst (List.find (fun (_, v) -> v = s) sched_names)

(* A categorical value's spelling, normalized for lookup: case and
   surrounding blanks don't matter, and "clook" is "c-look". *)
let canonical name =
  match String.lowercase_ascii (String.trim name) with
  | "clook" -> "c-look"
  | n -> n

let sched_of_name_opt name = List.assoc_opt (canonical name) sched_names

type t = {
  specs : Dpm_disk.Specs.t;
  fleet : Dpm_disk.Specs.t array;
  sched : sched;
  tpm_threshold : float option;
  drpm_lower : float;
  drpm_upper : float;
  drpm_window : int;
  drpm_idle_interval : float;
  drpm_floor_depth : int;
  queue_depth : int;
  pm_call_overhead : float;
  pre_activation_lead : float;
}

(* Single choke point for configuration invariants: every constructor
   ([make], [update] and each [with_*]) funnels through [check], so an invalid
   knob combination is rejected at construction time no matter which
   path built it (CLI, sweep axis, wire spec, literal in a test). *)
let check t =
  let fail fmt = Format.kasprintf invalid_arg ("Config: " ^^ fmt) in
  (* Float bounds are written as [not (x >= b)] so NaN fails them too. *)
  if t.queue_depth < 1 then
    fail "queue_depth must be >= 1 (got %d)" t.queue_depth;
  if t.drpm_window < 1 then
    fail "drpm_window must be >= 1 (got %d)" t.drpm_window;
  if not (t.drpm_lower >= 0.0) then
    fail "drpm_lower must be >= 0 (got %g)" t.drpm_lower;
  if not (t.drpm_upper > t.drpm_lower) then
    fail "drpm_upper (%g) must exceed drpm_lower (%g)" t.drpm_upper
      t.drpm_lower;
  if not (t.drpm_idle_interval > 0.0) then
    fail "drpm_idle_interval must be > 0 (got %g)" t.drpm_idle_interval;
  if t.drpm_floor_depth < 0 then
    fail "drpm_floor_depth must be >= 0 (got %d)" t.drpm_floor_depth;
  if not (t.pm_call_overhead >= 0.0) then
    fail "pm_call_overhead must be >= 0 (got %g)" t.pm_call_overhead;
  if not (t.pre_activation_lead >= 0.0) then
    fail "pre_activation_lead must be >= 0 (got %g)" t.pre_activation_lead;
  (match t.tpm_threshold with
  | Some th when not (th > 0.0) -> fail "tpm_threshold must be > 0 (got %g)" th
  | _ -> ());
  t

let default =
  {
    specs = Dpm_disk.Specs.ultrastar_36z15;
    fleet = [||];
    sched = Fcfs;
    tpm_threshold = None;
    drpm_lower = 0.05;
    drpm_upper = 0.15;
    drpm_window = Dpm_disk.Specs.ultrastar_36z15.drpm_window;
    drpm_idle_interval = 1.0;
    drpm_floor_depth = 4;
    queue_depth = 32;
    pm_call_overhead = 2.0e-6;
    pre_activation_lead = 0.0;
  }

let make ?(specs = default.specs) ?(fleet = default.fleet)
    ?(sched = default.sched) ?tpm_threshold
    ?(drpm_lower = default.drpm_lower) ?(drpm_upper = default.drpm_upper)
    ?(drpm_window = default.drpm_window)
    ?(drpm_idle_interval = default.drpm_idle_interval)
    ?(drpm_floor_depth = default.drpm_floor_depth)
    ?(queue_depth = default.queue_depth)
    ?(pm_call_overhead = default.pm_call_overhead)
    ?(pre_activation_lead = default.pre_activation_lead) () =
  check
    {
      specs;
      fleet;
      sched;
      tpm_threshold;
      drpm_lower;
      drpm_upper;
      drpm_window;
      drpm_idle_interval;
      drpm_floor_depth;
      queue_depth;
      pm_call_overhead;
      pre_activation_lead;
    }

let with_specs specs t = check { t with specs }
let with_fleet fleet t = check { t with fleet }
let with_sched sched t = check { t with sched }

(* The model serving disk [disk]: fleet entries round-robin over the
   disk ids; an empty fleet means every disk is [t.specs] (the legacy
   homogeneous configuration). *)
let model t ~disk =
  let n = Array.length t.fleet in
  if n = 0 then t.specs else t.fleet.(disk mod n)

let homogeneous t =
  Array.for_all (fun m -> m = t.specs) t.fleet

let with_drpm_idle_interval drpm_idle_interval t =
  check { t with drpm_idle_interval }

let with_queue_depth queue_depth t = check { t with queue_depth }

(* The sweepable knobs, declared once: a sweep axis and a dpm-spec/1
   [sim] field are both a knob's name and a float value.  [set] skips
   [check]; [update] runs it once, after every setting, so whether a
   combination is valid does not depend on the order it is listed in. *)
type knob = {
  name : string;
  integral : bool;
  values : string list;
  get : t -> float option;
  set : float -> t -> t;
}

let knob ?(integral = false) ?(values = []) name get set =
  { name; integral; values; get; set }

let knobs =
  [
    knob "tpm-threshold"
      (fun t -> t.tpm_threshold)
      (fun v t -> { t with tpm_threshold = Some v });
    knob "drpm-lower"
      (fun t -> Some t.drpm_lower)
      (fun v t -> { t with drpm_lower = v });
    knob "drpm-upper"
      (fun t -> Some t.drpm_upper)
      (fun v t -> { t with drpm_upper = v });
    knob ~integral:true "drpm-window"
      (fun t -> Some (float t.drpm_window))
      (fun v t -> { t with drpm_window = truncate v });
    knob "drpm-idle-interval"
      (fun t -> Some t.drpm_idle_interval)
      (fun v t -> { t with drpm_idle_interval = v });
    knob ~integral:true "drpm-floor-depth"
      (fun t -> Some (float t.drpm_floor_depth))
      (fun v t -> { t with drpm_floor_depth = truncate v });
    knob ~integral:true "queue-depth"
      (fun t -> Some (float t.queue_depth))
      (fun v t -> { t with queue_depth = truncate v });
    knob "pm-call-overhead"
      (fun t -> Some t.pm_call_overhead)
      (fun v t -> { t with pm_call_overhead = v });
    knob "pre-activation-lead"
      (fun t -> Some t.pre_activation_lead)
      (fun v t -> { t with pre_activation_lead = v });
    (* Categorical: the value is the scheduler's index in [sched_names]. *)
    knob ~integral:true ~values:(List.map fst sched_names) "sched"
      (fun t ->
        Option.map float
          (List.find_index (fun (_, s) -> s = t.sched) sched_names))
      (fun v t ->
        match List.nth_opt sched_names (truncate v) with
        | Some (_, sched) -> { t with sched }
        | None -> invalid_arg "Config: sched index out of range");
  ]

let knob_name k = k.name
let integral k = k.integral
let value_names k = k.values
let get k t = k.get t

let value_of_name k name =
  Option.map float (List.find_index (String.equal (canonical name)) k.values)

let update settings t =
  check (List.fold_left (fun t (k, v) -> k.set v t) t settings)
