module Power = Dpm_disk.Power
module Rpm = Dpm_disk.Rpm
module Specs = Dpm_disk.Specs
module Json = Dpm_util.Json

type state =
  | Ready of int
  | Changing of { from_level : int; to_level : int }
  | Spinning_down
  | Standby
  | Spinning_up

type mark =
  | Retry of int
  | Remap of int
  | Redirect of int
  | Killed
  | Directive_spin_down
  | Directive_spin_up
  | Directive_set_rpm of int
  | Gap_decision of { predicted : float; level : int; spin_down : bool }
  | Dispatch of { disc : Config.sched; pos : int; arrival : float }
      (** One scheduler dispatch decision ({!Dpm_sim.Sched}): the queue
          discipline, the chosen head position (stripe units, post-remap
          for [Sstf_remap]) and the request's enqueue time.  The mark's
          own [t] is the dispatch time, so [t - arrival] is the queue
          wait and {!check} can replay the discipline's pick. *)

type event =
  | Span of { disk : int; state : state; t0 : float; t1 : float }
  | Service of {
      disk : int;
      level : int;
      arrival : float;
      t0 : float;
      t1 : float;
      bytes : int;
    }
  | Occupy of { disk : int; level : int; t0 : float; t1 : float }
  | Aborted of { disk : int; t0 : float; t1 : float; fraction : float }
  | Mark of { disk : int; t : float; mark : mark }
  | Sim_end of float

(* --- recording --- *)

type sink = {
  mutable rev : event list;
  mutable s_scheme : string;
  mutable s_program : string;
  mutable s_analytic : bool;
  mutable s_fleet : string list;
  mutable s_taps : (event -> unit) list;
      (* online consumers, notified synchronously by [emit]; reversed
         attachment order, which is irrelevant because taps must be
         observational *)
}

let sink () =
  {
    rev = [];
    s_scheme = "";
    s_program = "";
    s_analytic = false;
    s_fleet = [];
    s_taps = [];
  }

let emit s ev =
  s.rev <- ev :: s.rev;
  match s.s_taps with
  | [] -> ()
  | taps -> List.iter (fun f -> f ev) taps

let on_emit s f = s.s_taps <- f :: s.s_taps

let set_label s ~scheme ~program =
  s.s_scheme <- scheme;
  s.s_program <- program

let set_analytic s = s.s_analytic <- true

(* A log names its models only when they are not the default: a fleet
   by its slugs, a homogeneous non-default array by its one slug.
   Default logs, and their JSONL form, stay as they always were. *)
let close ?(analytic = false) s ~scheme ~program ~(config : Config.t) t_end =
  if analytic then set_analytic s;
  set_label s ~scheme ~program;
  s.s_fleet <-
    (if Array.length config.fleet > 0 then
       List.map Specs.name_of (Array.to_list config.fleet)
     else if config.specs <> Config.default.specs then
       [ Specs.name_of config.specs ]
     else []);
  emit s (Sim_end t_end)

type t = {
  t_scheme : string;
  t_program : string;
  t_analytic : bool;
  t_fleet : string list;
      (* model registry slugs, round-robin by disk id; [] = the default *)
  t_events : event list; (* emission order *)
  t_lanes : event array array;
      (* one per disk id up to the highest seen, each in emission order;
         [Sim_end] belongs to no lane *)
  t_sim_end : float;
}

(* The lane an event belongs to; [Sim_end] belongs to none. *)
let disk_of = function
  | Span { disk; _ }
  | Service { disk; _ }
  | Occupy { disk; _ }
  | Aborted { disk; _ }
  | Mark { disk; _ } ->
      disk
  | Sim_end _ -> -1

(* Freeze a log: one pass counts each lane and finds the last [Sim_end],
   a second fills the lanes.  Without a [Sim_end], the horizon is the
   latest timestamp. *)
let freeze ~scheme ~program ~analytic ~fleet events =
  let counts = ref [||] and explicit = ref None in
  List.iter
    (function
      | Sim_end s -> explicit := Some s
      | ev ->
          let d = disk_of ev in
          if d < 0 then invalid_arg "Timeline: negative disk id";
          let n = Array.length !counts in
          if d >= n then
            counts := Array.append !counts (Array.make (d + 1 - n) 0);
          !counts.(d) <- !counts.(d) + 1)
    events;
  let lanes = Array.map (fun n -> Array.make n (Sim_end 0.0)) !counts in
  let fill = Array.make (Array.length lanes) 0 in
  List.iter
    (function
      | Sim_end _ -> ()
      | ev ->
          let d = disk_of ev in
          lanes.(d).(fill.(d)) <- ev;
          fill.(d) <- fill.(d) + 1)
    events;
  let latest () =
    List.fold_left
      (fun acc -> function
        | Span { t1; _ } | Service { t1; _ } | Occupy { t1; _ }
        | Aborted { t1; _ } ->
            Float.max acc t1
        | Mark { t; _ } | Sim_end t -> Float.max acc t)
      0.0 events
  in
  {
    t_scheme = scheme;
    t_program = program;
    t_analytic = analytic;
    t_fleet = fleet;
    t_events = events;
    t_lanes = lanes;
    t_sim_end = (match !explicit with Some s -> s | None -> latest ());
  }

let contents s =
  freeze ~scheme:s.s_scheme ~program:s.s_program ~analytic:s.s_analytic
    ~fleet:s.s_fleet (List.rev s.rev)

let events t = t.t_events
let scheme t = t.t_scheme
let program t = t.t_program
let is_analytic t = t.t_analytic
let fleet t = t.t_fleet
let ndisks t = Array.length t.t_lanes
let sim_end t = t.t_sim_end

(* --- re-integration: energy from the event log and the Power tables
   alone.  The engine's own accounting lives in Disk_state; nothing here
   reads it. --- *)

type energy = { per_disk : float array; total : float }

let energy_of specs = function
  | Span { state; t0; t1; _ } ->
      (* Zero-width spans carry no energy; skipping them also keeps a
         zero-time spin transition (the flash tier) from multiplying an
         infinite transition power by a zero duration. *)
      if t1 > t0 then
        (match state with
        | Ready l -> Power.idle specs ~level:l
        | Changing { from_level; to_level } ->
            Power.idle specs ~level:(max from_level to_level)
        | Spinning_down -> Power.spin_down_power specs
        | Standby -> Power.standby specs
        | Spinning_up -> Power.spin_up_power specs)
        *. (t1 -. t0)
      else 0.0
  | Service { level; t0; t1; _ } | Occupy { level; t0; t1; _ } ->
      Power.active specs ~level *. (t1 -. t0)
  | Aborted { fraction; _ } -> Power.aborted_spin_up_energy specs ~fraction
  | Mark _ | Sim_end _ -> 0.0

(* Per-disk model resolution, shared by re-integration, checking and
   the reader: an explicit [?fleet] wins; otherwise the log's own model
   label (registry slugs) is resolved, falling back to the homogeneous
   [specs] when the label is absent or names an unknown model (a
   partially resolved fleet would misalign the round-robin). *)
let models_of_label ~specs ~fleet label =
  let models =
    match fleet with
    | Some fl -> fl
    | None ->
        let resolved = List.map Specs.of_name_opt label in
        if label <> [] && List.for_all Option.is_some resolved then
          Array.of_list (List.map Option.get resolved)
        else [||]
  in
  let n = Array.length models in
  fun disk -> if n = 0 then specs else models.(disk mod n)

let resolve_models ?(specs = Config.default.Config.specs) ?fleet t =
  models_of_label ~specs ~fleet t.t_fleet

let reintegrate ?specs ?fleet t =
  let model = resolve_models ?specs ?fleet t in
  let per_disk =
    Array.mapi
      (fun disk lane ->
        let specs = model disk in
        Array.fold_left
          (fun acc ev ->
            let e = energy_of specs ev in
            if e <> 0.0 then acc +. e else acc)
          0.0 lane)
      t.t_lanes
  in
  { per_disk; total = Array.fold_left ( +. ) 0.0 per_disk }

(* --- invariant checking --- *)

(* A residency-like item: spans, busy intervals and aborted spin-ups all
   occupy wall time on one disk. *)
type item = I_state of state | I_busy of int | I_abort

let timed = function
  | Span { state; t0; t1; _ } -> Some (I_state state, t0, t1)
  | Service { level; t0; t1; _ } | Occupy { level; t0; t1; _ } ->
      Some (I_busy level, t0, t1)
  | Aborted { t0; t1; _ } -> Some (I_abort, t0, t1)
  | Mark _ | Sim_end _ -> None

let item_name = function
  | I_state (Ready l) -> Printf.sprintf "ready(%d)" l
  | I_state (Changing { from_level; to_level }) ->
      Printf.sprintf "changing(%d->%d)" from_level to_level
  | I_state Spinning_down -> "spin_down"
  | I_state Standby -> "standby"
  | I_state Spinning_up -> "spin_up"
  | I_busy l -> Printf.sprintf "busy(%d)" l
  | I_abort -> "aborted"

(* Whether [next] may immediately follow a disk that has settled in
   [Ready l].  Chained operations may elide zero-length residencies, so
   a new modulation or a spin-down may start in the same instant. *)
let from_ready l next =
  match next with
  | I_state (Ready l') | I_busy l' -> l' = l
  | I_state (Changing { from_level; _ }) -> from_level = l
  | I_state Spinning_down -> true
  | I_state Standby | I_state Spinning_up | I_abort -> false

let from_standby next =
  match next with
  | I_state Standby | I_state Spinning_up | I_abort -> true
  | I_state (Ready _) | I_state (Changing _) | I_state Spinning_down
  | I_busy _ ->
      false

let admissible ~top prev next =
  match prev with
  | I_state (Ready l) | I_busy l -> from_ready l next
  | I_state (Changing { from_level = f; to_level = tl }) -> (
      match next with
      | I_state (Changing { from_level = f2; to_level = t2 })
        when f2 = f && t2 = tl ->
          true (* the same modulation, charged in pieces *)
      | _ -> from_ready tl next)
  | I_state Spinning_down -> (
      match next with I_state Spinning_down -> true | _ -> from_standby next)
  | I_state Spinning_up -> (
      match next with I_state Spinning_up -> true | _ -> from_ready top next)
  | I_state Standby -> from_standby next
  | I_abort -> from_standby next

let level_ok ~top l = l >= 0 && l <= top

let item_levels_ok ~top = function
  | I_state (Ready l) | I_busy l -> level_ok ~top l
  | I_state (Changing { from_level; to_level }) ->
      level_ok ~top from_level && level_ok ~top to_level
  | I_state Spinning_down | I_state Standby | I_state Spinning_up | I_abort ->
      true

(* One dispatch decision as logged: emission-order position doubles as
   the FCFS sequence number. *)
type disp = { d_t : float; d_disc : Config.sched; d_pos : int; d_arr : float }

(* Replay a disk's dispatch decisions against its queue discipline.

   At decision [i] the requests certainly still queued are the later
   dispatches already enqueued: [candidates = {j > i : arr_j < t_i} ∪
   {i}] (strict [<]: a request enqueued exactly at the dispatch instant
   may or may not have been visible).  The scheduler optimized over a
   superset of the candidates, so its pick must be at least as good as
   the best candidate — testing against the subset is sound (never
   rejects a legal log) while still catching reordered or fabricated
   logs.  SCAN direction state threads across decisions, which is
   exactly the "monotone between reversals" invariant. *)
let check_dispatches ~report ~tol disk (services : (float * float) list)
    (clean : bool) (disps : disp list) =
  (* [report] consumes rendered strings; rebinding a ksprintf wrapper
     here keeps the format calls below polymorphic in arity. *)
  let err disk fmt = Printf.ksprintf (report disk) fmt in
  let ds = Array.of_list disps in
  let n = Array.length ds in
  let head = ref 0 in
  let dirup = ref true in
  (* Completion of the k-th service, for the work-conservation bound on
     fault-free lanes where services pair 1:1 with dispatches. *)
  let svc_end = Array.of_list (List.map snd services) in
  let conserving = clean && Array.length svc_end = n in
  for i = 0 to n - 1 do
    let d = ds.(i) in
    if i > 0 && d.d_t < ds.(i - 1).d_t -. tol then
      err disk "dispatch times not monotone at %g" d.d_t;
    if d.d_arr > d.d_t +. tol then
      err disk "dispatch at %g precedes its request's arrival %g" d.d_t d.d_arr;
    let cands = ref [ d ] in
    for j = i + 1 to n - 1 do
      if ds.(j).d_arr < d.d_t -. tol then cands := ds.(j) :: !cands
    done;
    let cands = !cands in
    let dist p = abs (p - !head) in
    let best f ok =
      List.fold_left
        (fun acc c -> if ok c.d_pos then f acc c.d_pos else acc)
        max_int cands
    in
    (match d.d_disc with
    | Config.Fcfs ->
        List.iter
          (fun c ->
            if c.d_arr < d.d_arr -. tol then
              err disk
                "fcfs dispatch at %g serves arrival %g before queued arrival %g"
                d.d_t d.d_arr c.d_arr)
          cands
    | Config.Sstf | Config.Sstf_remap ->
        let nearest =
          List.fold_left (fun acc c -> min acc (dist c.d_pos)) max_int cands
        in
        if dist d.d_pos > nearest then
          err disk
            "sstf dispatch at %g seeks %d units from %d but a request %d \
             units away was queued"
            d.d_t (dist d.d_pos) !head nearest
    | Config.Scan ->
        let up_best = best min (fun p -> p >= !head) in
        let down_best =
          List.fold_left
            (fun acc c -> if c.d_pos <= !head then max acc c.d_pos else acc)
            min_int cands
        in
        if !dirup then begin
          if up_best < max_int then begin
            if d.d_pos < !head then
              err disk
                "scan dispatch at %g reverses below head %d with an upward \
                 request at %d queued"
                d.d_t !head up_best
            else if d.d_pos > up_best then
              err disk "scan dispatch at %g skips nearer upward pos %d" d.d_t
                up_best
          end
          else if d.d_pos < !head then begin
            dirup := false;
            if down_best > min_int && d.d_pos < down_best then
              err disk "scan dispatch at %g skips nearer downward pos %d"
                d.d_t down_best
          end
        end
        else begin
          if down_best > min_int then begin
            if d.d_pos > !head then
              err disk
                "scan dispatch at %g reverses above head %d with a downward \
                 request at %d queued"
                d.d_t !head down_best
            else if d.d_pos < down_best then
              err disk "scan dispatch at %g skips nearer downward pos %d"
                d.d_t down_best
          end
          else if d.d_pos > !head then begin
            dirup := true;
            if up_best < max_int && d.d_pos > up_best then
              err disk "scan dispatch at %g skips nearer upward pos %d" d.d_t
                up_best
          end
        end
    | Config.Clook ->
        let up_best = best min (fun p -> p >= !head) in
        let any_best = best min (fun _ -> true) in
        if d.d_pos >= !head then begin
          if up_best < d.d_pos then
            err disk "c-look dispatch at %g skips nearer forward pos %d" d.d_t
              up_best
        end
        else if d.d_pos > any_best then
          err disk "c-look wrap at %g lands on %d, not the lowest queued %d"
            d.d_t d.d_pos any_best);
    head := d.d_pos;
    if conserving then begin
      let prev_end = if i = 0 then 0.0 else svc_end.(i - 1) in
      let earliest =
        List.fold_left (fun acc c -> Float.min acc c.d_arr) d.d_arr cands
      in
      if d.d_t > Float.max prev_end earliest +. tol then
        err disk
          "dispatch at %g idles: previous service ended %g, earliest queued \
           arrival %g"
          d.d_t prev_end earliest
    end
  done

(* One disk's residency and queue checks, over its lane. *)
let check_lane ~report ~tol ~s_end ~analytic ~top disk lane =
  let err disk fmt = Printf.ksprintf (report disk) fmt in
  (* One pass over the lane: residency items, service intervals,
     dispatch decisions, the kill time, and whether any fault touched
     the queue. *)
  let items = ref [] and services = ref [] and disps = ref [] in
  let killed = ref None and clean = ref true in
  Array.iter
    (fun ev ->
      Option.iter (fun it -> items := it :: !items) (timed ev);
      match ev with
      | Service { t0; t1; _ } -> services := (t0, t1) :: !services
      | Mark { t; mark = Killed; _ } ->
          killed := Some t;
          clean := false
      | Mark { mark = Retry _ | Remap _ | Redirect _; _ } -> clean := false
      | Mark { t; mark = Dispatch { disc; pos; arrival }; _ } ->
          let d = { d_t = t; d_disc = disc; d_pos = pos; d_arr = arrival } in
          disps := d :: !disps
      | _ -> ())
    lane;
  let items = List.rev !items in
  (* Well-formedness, shared by both modes. *)
  List.iter
    (fun (it, t0, t1) ->
      if t1 < t0 then
        err disk "%s: negative duration [%g, %g]" (item_name it) t0 t1;
      if not (item_levels_ok ~top it) then
        err disk "%s: level out of range (top %d)" (item_name it) top)
    items;
  if analytic then begin
    (* Oracle-reconstructed logs: monotone starts and full coverage of
       [0, sim_end]; service may overlap the tail slack, and a direct
       modulation charged on top of a too-short gap at the head of the
       run may be back-dated before t = 0. *)
    let sorted =
      List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b) items
    in
    ignore
      (List.fold_left
         (fun prev (_, t0, _) ->
           if t0 < prev -. tol then err disk "starts not monotone at %g" t0;
           Float.max prev t0)
         Float.neg_infinity sorted);
    let covered =
      List.fold_left
        (fun edge (_, t0, t1) ->
          if t0 > edge +. tol then err disk "coverage gap [%g, %g]" edge t0;
          Float.max edge t1)
        0.0 sorted
    in
    if covered < s_end -. tol && items <> [] then
      err disk "coverage ends at %g, before sim end %g" covered s_end
  end
  else begin
    (* Engine logs: spans are exactly contiguous from 0 and every
       adjacency is an automaton edge. *)
    (match items with
    | [] ->
        if s_end > tol && !killed = None then
          err disk "no residency recorded over [0, %g]" s_end
    | (first, t0, _) :: _ ->
        if t0 <> 0.0 then err disk "first residency starts at %g, not 0" t0;
        if not (from_ready top first) then
          err disk "illegal initial state %s (disks start ready at top)"
            (item_name first));
    let rec walk = function
      | (p, _, p1) :: ((n, n0, _) :: _ as rest) ->
          if n0 <> p1 then
            err disk "%s..%s: gap or overlap (%.17g -> %.17g)" (item_name p)
              (item_name n) p1 n0;
          if not (admissible ~top p n) then
            err disk "illegal transition %s -> %s at %g" (item_name p)
              (item_name n) n0;
          walk rest
      | _ -> ()
    in
    walk items;
    let last_end = List.fold_left (fun _ (_, _, t1) -> t1) 0.0 items in
    match !killed with
    | Some k ->
        if Float.abs (last_end -. k) > tol && items <> [] then
          err disk "residency ends at %g but the disk was killed at %g"
            last_end k
    | None ->
        if last_end < s_end -. tol then
          err disk "residency ends at %g, before sim end %g" last_end s_end
  end;
  (* Per-queue legality: on any one disk, Service intervals never
     overlap (the head serves one request at a time), and logged
     dispatch decisions must replay under their queue discipline. *)
  let services =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !services)
  in
  ignore
    (List.fold_left
       (fun prev_end (t0, t1) ->
         if t0 < prev_end -. tol then
           err disk "service intervals overlap: [%g, %g] starts before %g" t0
             t1 prev_end;
         Float.max prev_end t1)
       0.0 services);
  if !disps <> [] then
    check_dispatches ~report ~tol disk services !clean (List.rev !disps)

let check ?specs ?fleet t =
  let model = resolve_models ?specs ?fleet t in
  let tol = 1e-9 *. Float.max 1.0 t.t_sim_end in
  let errors = ref [] in
  let report disk m =
    errors := Printf.sprintf "disk %d: %s" disk m :: !errors
  in
  (* Out-of-range fractions first, in emission order over the whole log;
     then each disk's errors, in disk order. *)
  List.iter
    (function
      | Aborted { disk; fraction; _ } when fraction < 0.0 || fraction > 1.0 ->
          Printf.ksprintf (report disk)
            "aborted spin-up fraction %g outside [0, 1]" fraction
      | _ -> ())
    t.t_events;
  Array.iteri
    (fun disk lane ->
      check_lane ~report ~tol ~s_end:t.t_sim_end ~analytic:t.t_analytic
        ~top:(Rpm.max_level (model disk)) disk lane)
    t.t_lanes;
  match List.rev !errors with [] -> Ok () | es -> Error es

(* --- derived statistics --- *)

type disk_summary = {
  disk : int;
  busy : float;
  ready : float;
  ready_low : float;
  changing : float;
  spin_down_time : float;
  standby : float;
  spin_up_time : float;
  aborted_time : float;
  services : int;
  modulations : int;
  spin_downs : int;
  spin_ups : int;
  aborted : int;
  retries : int;
  remaps : int;
  redirects : int;
  killed_at : float option;
  missed_preactivations : int;
  early_preactivations : int;
  early_margin : float;
  wait : float;
}

let empty_summary disk =
  {
    disk;
    busy = 0.0;
    ready = 0.0;
    ready_low = 0.0;
    changing = 0.0;
    spin_down_time = 0.0;
    standby = 0.0;
    spin_up_time = 0.0;
    aborted_time = 0.0;
    services = 0;
    modulations = 0;
    spin_downs = 0;
    spin_ups = 0;
    aborted = 0;
    retries = 0;
    remaps = 0;
    redirects = 0;
    killed_at = None;
    missed_preactivations = 0;
    early_preactivations = 0;
    early_margin = 0.0;
    wait = 0.0;
  }

(* Per-disk fold state for run counting and pre-activation analysis. *)
type scan = {
  mutable sum : disk_summary;
  mutable prev : item option;
  mutable rising_until : float option;
      (* completion time of a spin-up run whose wake-up has not been
         claimed by a service or written off yet *)
}

(* The highest level seen anywhere in the log, which splits low-RPM
   idle from full speed.  The summaries count [Changing] levels; the
   gantt has always ignored them. *)
let top_level ~changing t =
  Array.fold_left
    (Array.fold_left (fun acc ev ->
         match ev with
         | Span { state = Ready l; _ } | Service { level = l; _ }
         | Occupy { level = l; _ } ->
             max acc l
         | Span { state = Changing { from_level; to_level }; _ } when changing
           ->
             max acc (max from_level to_level)
         | _ -> acc))
    0 t.t_lanes

let disk_summaries t =
  let top_guess = top_level ~changing:true t in
  (* A wake-up nothing claimed: the disk was up early, from [b] on. *)
  let write_off sc ~at b =
    sc.sum <-
      {
        sc.sum with
        early_preactivations = sc.sum.early_preactivations + 1;
        early_margin = sc.sum.early_margin +. Float.max 0.0 (at -. b);
      };
    sc.rising_until <- None
  in
  (* Run before accounting for each timed item: detect the end of a
     spin-up run (spans are contiguous, so it ended at this item's t0)
     and write the pending wake-up off as early if the disk heads back
     down without serving anything. *)
  let pre_item sc it t0 =
    (match (sc.prev, it) with
    | Some (I_state Spinning_up), n when n <> I_state Spinning_up ->
        sc.rising_until <- Some t0
    | _ -> ());
    match (sc.rising_until, it) with
    | Some b, I_state Spinning_down -> write_off sc ~at:t0 b
    | _ -> ()
  in
  let account sc it t0 t1 =
    let dt = t1 -. t0 in
    let s = sc.sum in
    let new_run state =
      match (sc.prev, state) with
      | Some (I_state p), _ when p = state -> false
      | _ -> true
    in
    (match it with
    | I_state (Ready l) ->
        sc.sum <-
          {
            s with
            ready = s.ready +. dt;
            ready_low = (s.ready_low +. if l < top_guess then dt else 0.0);
          }
    | I_state (Changing _ as st) ->
        sc.sum <-
          {
            s with
            changing = s.changing +. dt;
            modulations = (s.modulations + if new_run st then 1 else 0);
          }
    | I_state Spinning_down ->
        sc.sum <-
          {
            s with
            spin_down_time = s.spin_down_time +. dt;
            spin_downs = (s.spin_downs + if new_run Spinning_down then 1 else 0);
          }
    | I_state Standby -> sc.sum <- { s with standby = s.standby +. dt }
    | I_state Spinning_up ->
        sc.sum <-
          {
            s with
            spin_up_time = s.spin_up_time +. dt;
            spin_ups = (s.spin_ups + if new_run Spinning_up then 1 else 0);
          }
    | I_busy _ -> sc.sum <- { s with busy = s.busy +. dt }
    | I_abort ->
        sc.sum <-
          { s with aborted_time = s.aborted_time +. dt; aborted = s.aborted + 1 });
    sc.prev <- Some it
  in
  let step sc ev =
    match (ev, timed ev) with
    | Mark { t; mark; _ }, _ -> (
        let s = sc.sum in
        match mark with
        | Retry _ -> sc.sum <- { s with retries = s.retries + 1 }
        | Remap _ -> sc.sum <- { s with remaps = s.remaps + 1 }
        | Redirect _ -> sc.sum <- { s with redirects = s.redirects + 1 }
        | Killed -> sc.sum <- { s with killed_at = Some t }
        | Directive_spin_down | Directive_spin_up | Directive_set_rpm _
        | Gap_decision _ | Dispatch _ ->
            ())
    | _, None -> ()
    | _, Some (it, t0, t1) ->
        pre_item sc it t0;
        (match ev with
        | Service { arrival; _ } ->
            let s = sc.sum in
            let waited = t0 -. arrival in
            let missed, early, margin =
              match sc.rising_until with
              | Some b ->
                  sc.rising_until <- None;
                  if waited > 0.0 then (1, 0, 0.0)
                  else if arrival > b then (0, 1, arrival -. b)
                  else (0, 0, 0.0)
              | None -> (0, 0, 0.0)
            in
            sc.sum <-
              {
                s with
                services = s.services + 1;
                wait = s.wait +. waited;
                missed_preactivations = s.missed_preactivations + missed;
                early_preactivations = s.early_preactivations + early;
                early_margin = s.early_margin +. margin;
              }
        | _ -> ());
        account sc it t0 t1
  in
  Array.mapi
    (fun disk lane ->
      let sc = { sum = empty_summary disk; prev = None; rising_until = None } in
      Array.iter (step sc) lane;
      Option.iter (write_off sc ~at:t.t_sim_end) sc.rising_until;
      sc.sum)
    t.t_lanes

let pre_activation_totals t =
  Array.fold_left
    (fun (m, e) s ->
      (m + s.missed_preactivations, e + s.early_preactivations))
    (0, 0) (disk_summaries t)

(* --- rendering --- *)

let gantt ?(width = 64) t =
  let nd = ndisks t in
  let s_end = t.t_sim_end in
  if nd = 0 || s_end <= 0.0 then ""
  else begin
    let top_guess = top_level ~changing:false t in
    (* Category indices: 0 busy, 1 abort, 2 spin-up, 3 spin-down,
       4 changing, 5 low-rpm idle, 6 standby, 7 full-speed idle. *)
    let chars = [| '#'; '!'; '^'; 'v'; '-'; '~'; '.'; '=' |] in
    let bucket_w = s_end /. float_of_int width in
    let buf = Buffer.create ((width + 16) * nd) in
    Array.iteri
      (fun d lane ->
        let weight = Array.make_matrix width 8 0.0 in
        let spread cat t0 t1 =
          if t1 > t0 then begin
            let b0 = max 0 (int_of_float (t0 /. bucket_w)) in
            let b1 = min (width - 1) (int_of_float (t1 /. bucket_w)) in
            for b = b0 to b1 do
              let lo = Float.max t0 (float_of_int b *. bucket_w) in
              let hi = Float.min t1 (float_of_int (b + 1) *. bucket_w) in
              if hi > lo then weight.(b).(cat) <- weight.(b).(cat) +. (hi -. lo)
            done
          end
        in
        let killed = ref None in
        Array.iter
          (function
            | Span { state; t0; t1; _ } ->
                let cat =
                  match state with
                  | Ready l -> if l < top_guess then 5 else 7
                  | Changing _ -> 4
                  | Spinning_down -> 3
                  | Standby -> 6
                  | Spinning_up -> 2
                in
                spread cat t0 t1
            | Service { t0; t1; _ } | Occupy { t0; t1; _ } -> spread 0 t0 t1
            | Aborted { t0; t1; _ } -> spread 1 t0 t1
            | Mark { t; mark = Killed; _ } -> killed := Some t
            | Mark _ | Sim_end _ -> ())
          lane;
        Buffer.add_string buf (Printf.sprintf "disk %-2d |" d);
        for b = 0 to width - 1 do
          let best = ref (-1) and best_w = ref 0.0 in
          for c = 0 to 7 do
            if weight.(b).(c) > !best_w then begin
              best := c;
              best_w := weight.(b).(c)
            end
          done;
          let ch =
            if !best >= 0 then chars.(!best)
            else
              match !killed with
              | Some k when float_of_int b *. bucket_w >= k -. (bucket_w /. 2.0)
                ->
                  'X'
              | _ -> ' '
          in
          Buffer.add_char buf ch
        done;
        Buffer.add_string buf "|\n")
      t.t_lanes;
    Buffer.contents buf
  end

let summary ?specs ?fleet t =
  let module Table = Dpm_util.Table in
  let buf = Buffer.create 1024 in
  let e = reintegrate ?specs ?fleet t in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "timeline %s/%s"
           (if t.t_program = "" then "?" else t.t_program)
           (if t.t_scheme = "" then "?" else t.t_scheme))
      ~columns:
        (("disk", Table.Left)
        :: List.map
             (fun c -> (c, Table.Right))
             [
               "busy(s)"; "idle(s)"; "low-rpm(s)"; "chg(s)"; "down(s)";
               "stby(s)"; "up(s)"; "serves"; "mods"; "spdn"; "miss"; "early";
               "wait(s)"; "energy(J)";
             ])
  in
  Array.iter
    (fun s ->
      Table.add_row table
        ((string_of_int s.disk ^ if s.killed_at = None then "" else "*")
         :: List.map Table.cell_f
              [
                s.busy; s.ready; s.ready_low; s.changing; s.spin_down_time;
                s.standby; s.spin_up_time;
              ]
        @ List.map Table.cell_int
            [
              s.services; s.modulations; s.spin_downs; s.missed_preactivations;
              s.early_preactivations;
            ]
        @ List.map Table.cell_f [ s.wait; e.per_disk.(s.disk) ]))
    (disk_summaries t);
  Buffer.add_string buf (Table.render table);
  let lanes = gantt t in
  if lanes <> "" then
    Printf.bprintf buf
      "gantt over [0, %.2f s] (#busy =idle ~low-rpm -chg vdown .stby ^up \
       !abort Xdead)\n\
       %s"
      t.t_sim_end lanes;
  Printf.bprintf buf "reintegrated energy: %.2f J over %d event(s)\n" e.total
    (List.length t.t_events);
  (match check ?specs ?fleet t with
  | Ok () -> Buffer.add_string buf "invariants: ok\n"
  | Error es ->
      Printf.bprintf buf "invariants: %d violation(s)\n" (List.length es);
      List.iter (Printf.bprintf buf "  %s\n") es);
  Buffer.contents buf

(* --- JSONL / CSV export --- *)

let fstr x = Printf.sprintf "%.17g" x

(* One event as (key, JSON token) pairs in wire order: the one field
   list both exports print.  Every string here is a plain identifier,
   so quoting needs no escapes. *)
let event_fields ev =
  let q s = "\"" ^ s ^ "\"" and i = string_of_int in
  match ev with
  | Span { disk; state; t0; t1 } ->
      (("ev", q "span") :: ("disk", i disk)
      ::
      (match state with
      | Ready l -> [ ("state", q "ready"); ("level", i l) ]
      | Changing { from_level; to_level } ->
          [
            ("state", q "changing"); ("from", i from_level);
            ("to", i to_level);
          ]
      | Spinning_down -> [ ("state", q "spin_down") ]
      | Standby -> [ ("state", q "standby") ]
      | Spinning_up -> [ ("state", q "spin_up") ]))
      @ [ ("t0", fstr t0); ("t1", fstr t1) ]
  | Service { disk; level; arrival; t0; t1; bytes } ->
      [
        ("ev", q "serve"); ("disk", i disk); ("level", i level);
        ("arrival", fstr arrival); ("t0", fstr t0); ("t1", fstr t1);
        ("bytes", i bytes);
      ]
  | Occupy { disk; level; t0; t1 } ->
      [
        ("ev", q "occupy"); ("disk", i disk); ("level", i level);
        ("t0", fstr t0); ("t1", fstr t1);
      ]
  | Aborted { disk; t0; t1; fraction } ->
      [
        ("ev", q "abort"); ("disk", i disk); ("t0", fstr t0); ("t1", fstr t1);
        ("fraction", fstr fraction);
      ]
  | Mark { disk; t; mark } ->
      ("ev", q "mark") :: ("disk", i disk) :: ("t", fstr t)
      ::
      (match mark with
      | Retry k -> [ ("mark", q "retry"); ("arg", i k) ]
      | Remap b -> [ ("mark", q "remap"); ("arg", i b) ]
      | Redirect d -> [ ("mark", q "redirect"); ("arg", i d) ]
      | Killed -> [ ("mark", q "killed") ]
      | Directive_spin_down -> [ ("mark", q "spin_down") ]
      | Directive_spin_up -> [ ("mark", q "spin_up") ]
      | Directive_set_rpm l -> [ ("mark", q "set_rpm"); ("arg", i l) ]
      | Gap_decision { predicted; level; spin_down } ->
          [
            ("mark", q "gap"); ("predicted", fstr predicted);
            ("level", i level); ("spin_down", string_of_bool spin_down);
          ]
      | Dispatch { disc; pos; arrival } ->
          [
            ("mark", q "dispatch"); ("sched", q (Config.sched_name disc));
            ("arg", i pos); ("arrival", fstr arrival);
          ])
  | Sim_end t -> [ ("ev", q "end"); ("t", fstr t) ]

let write_jsonl t oc =
  let line fields =
    output_char oc '{';
    List.iteri
      (fun n (k, v) ->
        Printf.fprintf oc {|%s"%s":%s|} (if n > 0 then "," else "") k v)
      fields;
    output_string oc "}\n"
  in
  let jstr s = Json.to_string (Json.Str s) in
  (* The models ride in the meta line only when they are not the
     default, so legacy logs round-trip byte-identically. *)
  line
    ([
       ("ev", {|"meta"|}); ("scheme", jstr t.t_scheme);
       ("program", jstr t.t_program); ("analytic", string_of_bool t.t_analytic);
     ]
    @ if t.t_fleet = [] then []
      else [ ("fleet", jstr (String.concat ";" t.t_fleet)) ]);
  List.iter (fun ev -> line (event_fields ev)) t.t_events

let csv_columns =
  [
    "ev"; "disk"; "state"; "level"; "from"; "to"; "arrival"; "t0"; "t1";
    "bytes"; "fraction"; "mark"; "arg"; "predicted"; "spin_down"; "t";
  ]

let write_csv t oc =
  output_string oc (String.concat "," csv_columns ^ "\n");
  List.iter
    (fun ev ->
      (* The header is fixed: a dispatch's scheduler rides in the state
         column, and strings go unquoted. *)
      let cells =
        List.map
          (fun (k, v) ->
            ( (if k = "sched" then "state" else k),
              if v.[0] = '"' then String.sub v 1 (String.length v - 2) else v ))
          (event_fields ev)
      in
      output_string oc
        (String.concat ","
           (List.map
              (fun c -> Option.value ~default:"" (List.assoc_opt c cells))
              csv_columns));
      output_char oc '\n')
    t.t_events

(* --- JSONL parsing: one JSON object per line --- *)

exception Bad of string (* a line's decoding failure, returned as [Error] *)

let field fields key conv =
  match Option.bind (Json.member key fields) conv with
  | Some v -> v
  | None -> raise (Bad ("missing field " ^ key))

let get fields key = field fields key Json.to_str
let geti fields key = field fields key Json.to_int
let getf fields key = field fields key Json.to_float

let event_of_fields fields =
  let i = geti fields and f = getf fields and s = get fields in
  match s "ev" with
  | "span" ->
      let state =
        match s "state" with
        | "ready" -> Ready (i "level")
        | "changing" -> Changing { from_level = i "from"; to_level = i "to" }
        | "spin_down" -> Spinning_down
        | "standby" -> Standby
        | "spin_up" -> Spinning_up
        | st -> raise (Bad ("unknown state " ^ st))
      in
      Span { disk = i "disk"; state; t0 = f "t0"; t1 = f "t1" }
  | "serve" ->
      Service
        {
          disk = i "disk"; level = i "level"; arrival = f "arrival";
          t0 = f "t0"; t1 = f "t1"; bytes = i "bytes";
        }
  | "occupy" ->
      Occupy { disk = i "disk"; level = i "level"; t0 = f "t0"; t1 = f "t1" }
  | "abort" ->
      Aborted
        { disk = i "disk"; t0 = f "t0"; t1 = f "t1"; fraction = f "fraction" }
  | "mark" ->
      let mark =
        match s "mark" with
        | "retry" -> Retry (i "arg")
        | "remap" -> Remap (i "arg")
        | "redirect" -> Redirect (i "arg")
        | "killed" -> Killed
        | "spin_down" -> Directive_spin_down
        | "spin_up" -> Directive_spin_up
        | "set_rpm" -> Directive_set_rpm (i "arg")
        | "gap" ->
            Gap_decision
              {
                predicted = f "predicted";
                level = i "level";
                spin_down = field fields "spin_down" Json.to_bool;
              }
        | "dispatch" -> (
            match Config.sched_of_name_opt (s "sched") with
            | Some disc ->
                Dispatch { disc; pos = i "arg"; arrival = f "arrival" }
            | None -> raise (Bad ("unknown scheduler " ^ s "sched")))
        | m -> raise (Bad ("unknown mark " ^ m))
      in
      Mark { disk = i "disk"; t = f "t"; mark }
  | "end" -> Sim_end (f "t")
  | ev -> raise (Bad ("unknown event " ^ ev))

(* A hostile line fails here rather than in an analysis: disk ids are
   in [0, Trace.max_disks) — freezing a log allocates a lane per id up
   to the largest — and every priced level is on the ladder of the
   model its disk resolves to. *)
let validate model ev =
  let d = disk_of ev in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  match (ev, timed ev) with
  | Sim_end _, _ -> ()
  | _ when d < 0 -> bad "negative disk id %d" d
  | _ when d >= Dpm_trace.Trace.max_disks ->
      bad "disk id %d not below Trace.max_disks (%d)" d
        Dpm_trace.Trace.max_disks
  | _, Some (it, _, _) ->
      let top = Rpm.max_level (model d) in
      if not (item_levels_ok ~top it) then
        bad "disk %d: %s: level out of range (top %d)" d (item_name it) top
  | _, None -> ()

let read_jsonl ic =
  let decode f = try Ok (f ()) with Bad m -> Error m in
  let model fleet =
    models_of_label ~specs:Config.default.Config.specs ~fleet:None fleet
  in
  let header fields =
    match Json.member "ev" fields with
    | Some (Json.Str "meta") ->
        Some
          (decode (fun () ->
               let fleet =
                 match Option.bind (Json.member "fleet" fields) Json.to_str with
                 | None | Some "" -> []
                 | Some names -> String.split_on_char ';' names
               in
               ( (get fields "scheme", get fields "program",
                  field fields "analytic" Json.to_bool, fleet),
                 model fleet )))
    | _ -> None
  in
  let unlabelled = model [] in
  let row meta fields =
    decode (fun () ->
        let ev = event_of_fields fields in
        validate (match meta with Some (_, m) -> m | None -> unlabelled) ev;
        ev)
  in
  Json.read_sections ~header ~row ic
  |> Stdlib.Result.map
       (List.map (fun (meta, events) ->
            let (scheme, program, analytic, fleet), _ =
              Option.value meta ~default:(("", "", false, []), unlabelled)
            in
            freeze ~scheme ~program ~analytic ~fleet events))
