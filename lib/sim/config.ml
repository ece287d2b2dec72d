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

let sched_of_name_opt name =
  match String.lowercase_ascii (String.trim name) with
  | "clook" -> Some Clook (* spelling alias; canonical name is "c-look" *)
  | n -> List.assoc_opt n sched_names

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
  retain_busy : bool;
}

(* Single choke point for configuration invariants: every constructor
   ([make] and each [with_*]) funnels through [check], so an invalid
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
    retain_busy = true;
  }

let make ?(specs = default.specs) ?(fleet = default.fleet)
    ?(sched = default.sched) ?tpm_threshold
    ?(drpm_lower = default.drpm_lower) ?(drpm_upper = default.drpm_upper)
    ?(drpm_window = default.drpm_window)
    ?(drpm_idle_interval = default.drpm_idle_interval)
    ?(drpm_floor_depth = default.drpm_floor_depth)
    ?(queue_depth = default.queue_depth)
    ?(pm_call_overhead = default.pm_call_overhead)
    ?(pre_activation_lead = default.pre_activation_lead)
    ?(retain_busy = default.retain_busy) () =
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
      retain_busy;
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
let with_tpm_threshold tpm_threshold t = check { t with tpm_threshold }
let with_drpm_lower drpm_lower t = check { t with drpm_lower }
let with_drpm_upper drpm_upper t = check { t with drpm_upper }
let with_drpm_window drpm_window t = check { t with drpm_window }

let with_drpm_idle_interval drpm_idle_interval t =
  check { t with drpm_idle_interval }

let with_drpm_floor_depth drpm_floor_depth t =
  check { t with drpm_floor_depth }

let with_queue_depth queue_depth t = check { t with queue_depth }

let with_pm_call_overhead pm_call_overhead t =
  check { t with pm_call_overhead }

let with_pre_activation_lead pre_activation_lead t =
  check { t with pre_activation_lead }

let with_retain_busy retain_busy t = check { t with retain_busy }
