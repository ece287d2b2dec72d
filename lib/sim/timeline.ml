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
let set_fleet s fleet = s.s_fleet <- fleet

type t = {
  t_scheme : string;
  t_program : string;
  t_analytic : bool;
  t_fleet : string list;
      (* model registry slugs, round-robin by disk id; [] = homogeneous *)
  t_events : event list; (* emission order *)
}

let contents s =
  {
    t_scheme = s.s_scheme;
    t_program = s.s_program;
    t_analytic = s.s_analytic;
    t_fleet = s.s_fleet;
    t_events = List.rev s.rev;
  }

let events t = t.t_events
let scheme t = t.t_scheme
let program t = t.t_program
let is_analytic t = t.t_analytic
let fleet t = t.t_fleet

let event_disk = function
  | Span { disk; _ }
  | Service { disk; _ }
  | Occupy { disk; _ }
  | Aborted { disk; _ }
  | Mark { disk; _ } ->
      Some disk
  | Sim_end _ -> None

let ndisks t =
  List.fold_left
    (fun acc ev ->
      match event_disk ev with Some d -> max acc (d + 1) | None -> acc)
    0 t.t_events

let sim_end t =
  let explicit =
    List.fold_left
      (fun acc ev -> match ev with Sim_end s -> Some s | _ -> acc)
      None t.t_events
  in
  match explicit with
  | Some s -> s
  | None ->
      List.fold_left
        (fun acc ev ->
          match ev with
          | Span { t1; _ } | Service { t1; _ } | Occupy { t1; _ }
          | Aborted { t1; _ } ->
              Float.max acc t1
          | Mark { t; _ } -> Float.max acc t
          | Sim_end s -> Float.max acc s)
        0.0 t.t_events

(* --- re-integration: energy from the event log and the Power tables
   alone.  The engine's own accounting lives in Disk_state; nothing here
   reads it. --- *)

type energy = { per_disk : float array; total : float }

let span_power specs = function
  | Ready l -> Power.idle specs ~level:l
  | Changing { from_level; to_level } ->
      Power.idle specs ~level:(max from_level to_level)
  | Spinning_down -> Power.spin_down_power specs
  | Standby -> Power.standby specs
  | Spinning_up -> Power.spin_up_power specs

(* Per-disk model resolution, shared by re-integration and checking: an
   explicit [?fleet] wins; otherwise the log's own fleet label (model
   registry slugs) is resolved, falling back to the homogeneous [specs]
   when the label is absent or names an unknown model (a partially
   resolved fleet would misalign the round-robin). *)
let fleet_models ~specs ~fleet t =
  let models =
    match fleet with
    | Some fl -> fl
    | None ->
        let resolved = List.map Specs.of_name_opt t.t_fleet in
        if t.t_fleet <> [] && List.for_all Option.is_some resolved then
          Array.of_list (List.map Option.get resolved)
        else [||]
  in
  let n = Array.length models in
  fun disk -> if n = 0 then specs else models.(disk mod n)

let resolve_models ?(specs = Config.default.Config.specs) ?fleet t =
  fleet_models ~specs ~fleet t

let reintegrate ?(specs = Config.default.Config.specs) ?fleet t =
  let model = fleet_models ~specs ~fleet t in
  let nd = ndisks t in
  let per_disk = Array.make nd 0.0 in
  let add d e = per_disk.(d) <- per_disk.(d) +. e in
  List.iter
    (fun ev ->
      match ev with
      | Span { disk; state; t0; t1 } ->
          (* Zero-width spans carry no energy; skipping them also keeps a
             zero-time spin transition (the flash tier) from multiplying
             an infinite transition power by a zero duration. *)
          if t1 > t0 then add disk (span_power (model disk) state *. (t1 -. t0))
      | Service { disk; level; t0; t1; _ } | Occupy { disk; level; t0; t1 } ->
          add disk (Power.active (model disk) ~level *. (t1 -. t0))
      | Aborted { disk; fraction; _ } ->
          add disk (Power.aborted_spin_up_energy (model disk) ~fraction)
      | Mark _ | Sim_end _ -> ())
    t.t_events;
  { per_disk; total = Array.fold_left ( +. ) 0.0 per_disk }

(* --- invariant checking --- *)

(* A residency-like item: spans, busy intervals and aborted spin-ups all
   occupy wall time on one disk. *)
type item = I_state of state | I_busy of int | I_abort

let item_of = function
  | Span { state; _ } -> Some (I_state state)
  | Service { level; _ } | Occupy { level; _ } -> Some (I_busy level)
  | Aborted _ -> Some I_abort
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
          let m =
            List.fold_left
              (fun acc c -> if c.d_pos <= !head then max acc c.d_pos else acc)
              min_int cands
          in
          m
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

let check ?(specs = Config.default.Config.specs) ?fleet t =
  let model = fleet_models ~specs ~fleet t in
  let nd = ndisks t in
  let s_end = sim_end t in
  let tol = 1e-9 *. Float.max 1.0 s_end in
  let errors = ref [] in
  let err disk fmt =
    Printf.ksprintf (fun m -> errors := Printf.sprintf "disk %d: %s" disk m :: !errors) fmt
  in
  let killed = Array.make (max 1 nd) None in
  List.iter
    (fun ev ->
      match ev with
      | Mark { disk; t; mark = Killed } -> killed.(disk) <- Some t
      | Aborted { disk; fraction; _ } ->
          if fraction < 0.0 || fraction > 1.0 then
            err disk "aborted spin-up fraction %g outside [0, 1]" fraction
      | _ -> ())
    t.t_events;
  for disk = 0 to nd - 1 do
    let top = Rpm.max_level (model disk) in
    let items =
      List.filter_map
        (fun ev ->
          match event_disk ev with
          | Some d when d = disk -> (
              match item_of ev with
              | Some it -> (
                  match ev with
                  | Span { t0; t1; _ }
                  | Service { t0; t1; _ }
                  | Occupy { t0; t1; _ }
                  | Aborted { t0; t1; _ } ->
                      Some (it, t0, t1)
                  | _ -> None)
              | None -> None)
          | _ -> None)
        t.t_events
    in
    (* Well-formedness, shared by both modes. *)
    List.iter
      (fun (it, t0, t1) ->
        if t1 < t0 then
          err disk "%s: negative duration [%g, %g]" (item_name it) t0 t1;
        if not (item_levels_ok ~top it) then
          err disk "%s: level out of range (top %d)" (item_name it) top)
      items;
    if t.t_analytic then begin
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
          if s_end > tol && killed.(disk) = None then
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
      let last_end =
        List.fold_left (fun _ (_, _, t1) -> t1) 0.0 items
      in
      match killed.(disk) with
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
      List.stable_sort
        (fun (a, _) (b, _) -> compare a b)
        (List.filter_map
           (fun ev ->
             match ev with
             | Service { disk = d; t0; t1; _ } when d = disk -> Some (t0, t1)
             | _ -> None)
           t.t_events)
    in
    ignore
      (List.fold_left
         (fun prev_end (t0, t1) ->
           if t0 < prev_end -. tol then
             err disk "service intervals overlap: [%g, %g] starts before %g"
               t0 t1 prev_end;
           Float.max prev_end t1)
         0.0 services);
    let clean =
      not
        (List.exists
           (fun ev ->
             match ev with
             | Mark { disk = d; mark; _ } when d = disk -> (
                 match mark with
                 | Retry _ | Remap _ | Redirect _ | Killed -> true
                 | Directive_spin_down | Directive_spin_up
                 | Directive_set_rpm _ | Gap_decision _ | Dispatch _ ->
                     false)
             | _ -> false)
           t.t_events)
    in
    let disps =
      List.filter_map
        (fun ev ->
          match ev with
          | Mark { disk = d; t; mark = Dispatch { disc; pos; arrival } }
            when d = disk ->
              Some { d_t = t; d_disc = disc; d_pos = pos; d_arr = arrival }
          | _ -> None)
        t.t_events
    in
    if disps <> [] then
      check_dispatches
        ~report:(fun d m -> err d "%s" m)
        ~tol disk services clean disps
  done;
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

let disk_summaries t =
  let top_guess =
    (* Highest level seen anywhere; only used to split ready_low. *)
    List.fold_left
      (fun acc ev ->
        match ev with
        | Span { state = Ready l; _ } | Service { level = l; _ }
        | Occupy { level = l; _ } ->
            max acc l
        | Span { state = Changing { from_level; to_level }; _ } ->
            max acc (max from_level to_level)
        | _ -> acc)
      0 t.t_events
  in
  let nd = ndisks t in
  let s_end = sim_end t in
  let scans =
    Array.init nd (fun d ->
        { sum = empty_summary d; prev = None; rising_until = None })
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
    | Some b, I_state Spinning_down ->
        sc.sum <-
          {
            sc.sum with
            early_preactivations = sc.sum.early_preactivations + 1;
            early_margin = sc.sum.early_margin +. Float.max 0.0 (t0 -. b);
          };
        sc.rising_until <- None
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
  List.iter
    (fun ev ->
      match ev with
      | Span { disk; state; t0; t1 } ->
          let sc = scans.(disk) in
          pre_item sc (I_state state) t0;
          account sc (I_state state) t0 t1
      | Occupy { disk; level; t0; t1 } ->
          let sc = scans.(disk) in
          pre_item sc (I_busy level) t0;
          account sc (I_busy level) t0 t1
      | Aborted { disk; t0; t1; _ } ->
          let sc = scans.(disk) in
          pre_item sc I_abort t0;
          account sc I_abort t0 t1
      | Service { disk; level; arrival; t0; t1; _ } ->
          let sc = scans.(disk) in
          pre_item sc (I_busy level) t0;
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
            };
          account sc (I_busy level) t0 t1
      | Mark { disk; t; mark } -> (
          let sc = scans.(disk) in
          let s = sc.sum in
          match mark with
          | Retry _ -> sc.sum <- { s with retries = s.retries + 1 }
          | Remap _ -> sc.sum <- { s with remaps = s.remaps + 1 }
          | Redirect _ -> sc.sum <- { s with redirects = s.redirects + 1 }
          | Killed -> sc.sum <- { s with killed_at = Some t }
          | Directive_spin_down | Directive_spin_up | Directive_set_rpm _
          | Gap_decision _ | Dispatch _ ->
              ())
      | Sim_end _ -> ())
    t.t_events;
  Array.map
    (fun sc ->
      (match sc.rising_until with
      | Some b ->
          sc.sum <-
            {
              sc.sum with
              early_preactivations = sc.sum.early_preactivations + 1;
              early_margin = sc.sum.early_margin +. Float.max 0.0 (s_end -. b);
            }
      | None -> ());
      sc.sum)
    scans

let pre_activation_totals t =
  Array.fold_left
    (fun (m, e) s ->
      (m + s.missed_preactivations, e + s.early_preactivations))
    (0, 0) (disk_summaries t)

(* --- rendering --- *)

let gantt ?(width = 64) t =
  let nd = ndisks t in
  let s_end = sim_end t in
  if nd = 0 || s_end <= 0.0 then ""
  else begin
    let top_guess =
      List.fold_left
        (fun acc ev ->
          match ev with
          | Span { state = Ready l; _ } | Service { level = l; _ }
          | Occupy { level = l; _ } ->
              max acc l
          | _ -> acc)
        0 t.t_events
    in
    (* Category indices: 0 busy, 1 abort, 2 spin-up, 3 spin-down,
       4 changing, 5 low-rpm idle, 6 standby, 7 full-speed idle. *)
    let chars = [| '#'; '!'; '^'; 'v'; '-'; '~'; '.'; '=' |] in
    let weight = Array.init nd (fun _ -> Array.make_matrix width 8 0.0) in
    let bucket_w = s_end /. float_of_int width in
    let spread disk cat t0 t1 =
      if t1 > t0 then begin
        let b0 = max 0 (int_of_float (t0 /. bucket_w)) in
        let b1 = min (width - 1) (int_of_float (t1 /. bucket_w)) in
        for b = b0 to b1 do
          let lo = Float.max t0 (float_of_int b *. bucket_w) in
          let hi = Float.min t1 (float_of_int (b + 1) *. bucket_w) in
          if hi > lo then weight.(disk).(b).(cat) <- weight.(disk).(b).(cat) +. (hi -. lo)
        done
      end
    in
    let killed = Array.make nd None in
    List.iter
      (fun ev ->
        match ev with
        | Span { disk; state; t0; t1 } ->
            let cat =
              match state with
              | Ready l -> if l < top_guess then 5 else 7
              | Changing _ -> 4
              | Spinning_down -> 3
              | Standby -> 6
              | Spinning_up -> 2
            in
            spread disk cat t0 t1
        | Service { disk; t0; t1; _ } | Occupy { disk; t0; t1; _ } ->
            spread disk 0 t0 t1
        | Aborted { disk; t0; t1; _ } -> spread disk 1 t0 t1
        | Mark { disk; t; mark = Killed } -> killed.(disk) <- Some t
        | Mark _ | Sim_end _ -> ())
      t.t_events;
    let buf = Buffer.create ((width + 16) * nd) in
    for d = 0 to nd - 1 do
      Buffer.add_string buf (Printf.sprintf "disk %-2d |" d);
      for b = 0 to width - 1 do
        let best = ref (-1) and best_w = ref 0.0 in
        for c = 0 to 7 do
          if weight.(d).(b).(c) > !best_w then begin
            best := c;
            best_w := weight.(d).(b).(c)
          end
        done;
        let ch =
          if !best >= 0 then chars.(!best)
          else
            match killed.(d) with
            | Some k when float_of_int b *. bucket_w >= k -. (bucket_w /. 2.0) ->
                'X'
            | _ -> ' '
        in
        Buffer.add_char buf ch
      done;
      Buffer.add_string buf "|\n"
    done;
    Buffer.contents buf
  end

let summary ?(specs = Config.default.Config.specs) ?fleet t =
  let buf = Buffer.create 1024 in
  let sums = disk_summaries t in
  let e = reintegrate ~specs ?fleet t in
  let table =
    Dpm_util.Table.create
      ~title:
        (Printf.sprintf "timeline %s/%s"
           (if t.t_program = "" then "?" else t.t_program)
           (if t.t_scheme = "" then "?" else t.t_scheme))
      ~columns:
        [
          ("disk", Dpm_util.Table.Left);
          ("busy(s)", Dpm_util.Table.Right);
          ("idle(s)", Dpm_util.Table.Right);
          ("low-rpm(s)", Dpm_util.Table.Right);
          ("chg(s)", Dpm_util.Table.Right);
          ("down(s)", Dpm_util.Table.Right);
          ("stby(s)", Dpm_util.Table.Right);
          ("up(s)", Dpm_util.Table.Right);
          ("serves", Dpm_util.Table.Right);
          ("mods", Dpm_util.Table.Right);
          ("spdn", Dpm_util.Table.Right);
          ("miss", Dpm_util.Table.Right);
          ("early", Dpm_util.Table.Right);
          ("wait(s)", Dpm_util.Table.Right);
          ("energy(J)", Dpm_util.Table.Right);
        ]
  in
  Array.iter
    (fun s ->
      Dpm_util.Table.add_row table
        [
          (string_of_int s.disk
          ^ match s.killed_at with Some _ -> "*" | None -> "");
          Dpm_util.Table.cell_f s.busy;
          Dpm_util.Table.cell_f s.ready;
          Dpm_util.Table.cell_f s.ready_low;
          Dpm_util.Table.cell_f s.changing;
          Dpm_util.Table.cell_f s.spin_down_time;
          Dpm_util.Table.cell_f s.standby;
          Dpm_util.Table.cell_f s.spin_up_time;
          Dpm_util.Table.cell_int s.services;
          Dpm_util.Table.cell_int s.modulations;
          Dpm_util.Table.cell_int s.spin_downs;
          Dpm_util.Table.cell_int s.missed_preactivations;
          Dpm_util.Table.cell_int s.early_preactivations;
          Dpm_util.Table.cell_f s.wait;
          Dpm_util.Table.cell_f e.per_disk.(s.disk);
        ])
    sums;
  Buffer.add_string buf (Dpm_util.Table.render table);
  let lanes = gantt t in
  if lanes <> "" then begin
    Buffer.add_string buf
      (Printf.sprintf
         "gantt over [0, %.2f s] (#busy =idle ~low-rpm -chg vdown .stby ^up \
          !abort Xdead)\n"
         (sim_end t));
    Buffer.add_string buf lanes
  end;
  Buffer.add_string buf
    (Printf.sprintf "reintegrated energy: %.2f J over %d event(s)\n" e.total
       (List.length t.t_events));
  (match check ~specs ?fleet t with
  | Ok () -> Buffer.add_string buf "invariants: ok\n"
  | Error es ->
      Buffer.add_string buf
        (Printf.sprintf "invariants: %d violation(s)\n" (List.length es));
      List.iter
        (fun m -> Buffer.add_string buf (Printf.sprintf "  %s\n" m))
        es);
  Buffer.contents buf

(* --- JSONL / CSV export --- *)

let fstr x = Printf.sprintf "%.17g" x

let state_fields = function
  | Ready l -> Printf.sprintf {|"state":"ready","level":%d|} l
  | Changing { from_level; to_level } ->
      Printf.sprintf {|"state":"changing","from":%d,"to":%d|} from_level
        to_level
  | Spinning_down -> {|"state":"spin_down"|}
  | Standby -> {|"state":"standby"|}
  | Spinning_up -> {|"state":"spin_up"|}

let mark_fields = function
  | Retry k -> Printf.sprintf {|"mark":"retry","arg":%d|} k
  | Remap b -> Printf.sprintf {|"mark":"remap","arg":%d|} b
  | Redirect d -> Printf.sprintf {|"mark":"redirect","arg":%d|} d
  | Killed -> {|"mark":"killed"|}
  | Directive_spin_down -> {|"mark":"spin_down"|}
  | Directive_spin_up -> {|"mark":"spin_up"|}
  | Directive_set_rpm l -> Printf.sprintf {|"mark":"set_rpm","arg":%d|} l
  | Gap_decision { predicted; level; spin_down } ->
      Printf.sprintf {|"mark":"gap","predicted":%s,"level":%d,"spin_down":%b|}
        (fstr predicted) level spin_down
  | Dispatch { disc; pos; arrival } ->
      Printf.sprintf {|"mark":"dispatch","sched":"%s","arg":%d,"arrival":%s|}
        (Config.sched_name disc) pos (fstr arrival)

let event_json = function
  | Span { disk; state; t0; t1 } ->
      Printf.sprintf {|{"ev":"span","disk":%d,%s,"t0":%s,"t1":%s}|} disk
        (state_fields state) (fstr t0) (fstr t1)
  | Service { disk; level; arrival; t0; t1; bytes } ->
      Printf.sprintf
        {|{"ev":"serve","disk":%d,"level":%d,"arrival":%s,"t0":%s,"t1":%s,"bytes":%d}|}
        disk level (fstr arrival) (fstr t0) (fstr t1) bytes
  | Occupy { disk; level; t0; t1 } ->
      Printf.sprintf {|{"ev":"occupy","disk":%d,"level":%d,"t0":%s,"t1":%s}|}
        disk level (fstr t0) (fstr t1)
  | Aborted { disk; t0; t1; fraction } ->
      Printf.sprintf
        {|{"ev":"abort","disk":%d,"t0":%s,"t1":%s,"fraction":%s}|} disk
        (fstr t0) (fstr t1) (fstr fraction)
  | Mark { disk; t; mark } ->
      Printf.sprintf {|{"ev":"mark","disk":%d,"t":%s,%s}|} disk (fstr t)
        (mark_fields mark)
  | Sim_end t -> Printf.sprintf {|{"ev":"end","t":%s}|} (fstr t)

let write_jsonl t oc =
  let jstr s = Json.to_string (Json.Str s) in
  (* The fleet rides in the meta line only when heterogeneous, so
     legacy logs round-trip byte-identically. *)
  let fleet_field =
    if t.t_fleet = [] then ""
    else Printf.sprintf {|,"fleet":%s|} (jstr (String.concat ";" t.t_fleet))
  in
  Printf.fprintf oc {|{"ev":"meta","scheme":%s,"program":%s,"analytic":%b%s}|}
    (jstr t.t_scheme) (jstr t.t_program) t.t_analytic fleet_field;
  output_char oc '\n';
  List.iter
    (fun ev ->
      output_string oc (event_json ev);
      output_char oc '\n')
    t.t_events

let write_csv t oc =
  output_string oc
    "ev,disk,state,level,from,to,arrival,t0,t1,bytes,fraction,mark,arg,predicted,spin_down,t\n";
  let row ~ev ?(disk = "") ?(state = "") ?(level = "") ?(from = "") ?(to_ = "")
      ?(arrival = "") ?(t0 = "") ?(t1 = "") ?(bytes = "") ?(fraction = "")
      ?(mark = "") ?(arg = "") ?(predicted = "") ?(spin_down = "") ?(t = "") ()
      =
    Printf.fprintf oc "%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n" ev
      disk state level from to_ arrival t0 t1 bytes fraction mark arg predicted
      spin_down t
  in
  List.iter
    (fun ev ->
      match ev with
      | Span { disk; state; t0; t1 } ->
          let st, level, from, to_ =
            match state with
            | Ready l -> ("ready", string_of_int l, "", "")
            | Changing { from_level; to_level } ->
                ("changing", "", string_of_int from_level,
                 string_of_int to_level)
            | Spinning_down -> ("spin_down", "", "", "")
            | Standby -> ("standby", "", "", "")
            | Spinning_up -> ("spin_up", "", "", "")
          in
          row ~ev:"span" ~disk:(string_of_int disk) ~state:st ~level ~from ~to_
            ~t0:(fstr t0) ~t1:(fstr t1) ()
      | Service { disk; level; arrival; t0; t1; bytes } ->
          row ~ev:"serve" ~disk:(string_of_int disk)
            ~level:(string_of_int level) ~arrival:(fstr arrival) ~t0:(fstr t0)
            ~t1:(fstr t1) ~bytes:(string_of_int bytes) ()
      | Occupy { disk; level; t0; t1 } ->
          row ~ev:"occupy" ~disk:(string_of_int disk)
            ~level:(string_of_int level) ~t0:(fstr t0) ~t1:(fstr t1) ()
      | Aborted { disk; t0; t1; fraction } ->
          row ~ev:"abort" ~disk:(string_of_int disk) ~t0:(fstr t0)
            ~t1:(fstr t1) ~fraction:(fstr fraction) ()
      | Mark { disk; t; mark } -> (
          let base = row ~ev:"mark" ~disk:(string_of_int disk) ~t:(fstr t) in
          match mark with
          | Retry k -> base ~mark:"retry" ~arg:(string_of_int k) ()
          | Remap b -> base ~mark:"remap" ~arg:(string_of_int b) ()
          | Redirect d -> base ~mark:"redirect" ~arg:(string_of_int d) ()
          | Killed -> base ~mark:"killed" ()
          | Directive_spin_down -> base ~mark:"spin_down" ()
          | Directive_spin_up -> base ~mark:"spin_up" ()
          | Directive_set_rpm l -> base ~mark:"set_rpm" ~arg:(string_of_int l) ()
          | Gap_decision { predicted; level; spin_down } ->
              base ~mark:"gap" ~predicted:(fstr predicted)
                ~level:(string_of_int level)
                ~spin_down:(string_of_bool spin_down) ()
          | Dispatch { disc; pos; arrival } ->
              (* The discipline rides in the state column — the CSV
                 header is fixed. *)
              base ~mark:"dispatch" ~state:(Config.sched_name disc)
                ~arg:(string_of_int pos) ~arrival:(fstr arrival) ())
      | Sim_end t -> row ~ev:"end" ~t:(fstr t) ())
    t.t_events

(* --- JSONL parsing: one JSON object per line --- *)

let field fields key conv =
  match Option.bind (Json.member key fields) conv with
  | Some v -> v
  | None -> failwith ("Timeline.read_jsonl: missing field " ^ key)

let get fields key = field fields key Json.to_str
let geti fields key = field fields key Json.to_int
let getf fields key = field fields key Json.to_float

let event_of_fields fields =
  match get fields "ev" with
  | "span" ->
      let state =
        match get fields "state" with
        | "ready" -> Ready (geti fields "level")
        | "changing" ->
            Changing
              { from_level = geti fields "from"; to_level = geti fields "to" }
        | "spin_down" -> Spinning_down
        | "standby" -> Standby
        | "spin_up" -> Spinning_up
        | s -> failwith ("Timeline.read_jsonl: unknown state " ^ s)
      in
      Span
        {
          disk = geti fields "disk";
          state;
          t0 = getf fields "t0";
          t1 = getf fields "t1";
        }
  | "serve" ->
      Service
        {
          disk = geti fields "disk";
          level = geti fields "level";
          arrival = getf fields "arrival";
          t0 = getf fields "t0";
          t1 = getf fields "t1";
          bytes = geti fields "bytes";
        }
  | "occupy" ->
      Occupy
        {
          disk = geti fields "disk";
          level = geti fields "level";
          t0 = getf fields "t0";
          t1 = getf fields "t1";
        }
  | "abort" ->
      Aborted
        {
          disk = geti fields "disk";
          t0 = getf fields "t0";
          t1 = getf fields "t1";
          fraction = getf fields "fraction";
        }
  | "mark" ->
      let mark =
        match get fields "mark" with
        | "retry" -> Retry (geti fields "arg")
        | "remap" -> Remap (geti fields "arg")
        | "redirect" -> Redirect (geti fields "arg")
        | "killed" -> Killed
        | "spin_down" -> Directive_spin_down
        | "spin_up" -> Directive_spin_up
        | "set_rpm" -> Directive_set_rpm (geti fields "arg")
        | "gap" ->
            Gap_decision
              {
                predicted = getf fields "predicted";
                level = geti fields "level";
                spin_down = field fields "spin_down" Json.to_bool;
              }
        | "dispatch" ->
            let name = get fields "sched" in
            let disc =
              match Config.sched_of_name_opt name with
              | Some d -> d
              | None ->
                  failwith ("Timeline.read_jsonl: unknown scheduler " ^ name)
            in
            Dispatch
              {
                disc;
                pos = geti fields "arg";
                arrival = getf fields "arrival";
              }
        | m -> failwith ("Timeline.read_jsonl: unknown mark " ^ m)
      in
      Mark { disk = geti fields "disk"; t = getf fields "t"; mark }
  | "end" -> Sim_end (getf fields "t")
  | ev -> failwith ("Timeline.read_jsonl: unknown event " ^ ev)

let read_jsonl ic =
  let sections = ref [] in
  let current = ref None in
  let flush () =
    match !current with
    | None -> ()
    | Some (scheme, program, analytic, fleet, rev) ->
        sections :=
          {
            t_scheme = scheme;
            t_program = program;
            t_analytic = analytic;
            t_fleet = fleet;
            t_events = List.rev rev;
          }
          :: !sections;
        current := None
  in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         let fields =
           match Json.parse_string line with
           | Ok j -> j
           | Error e ->
               failwith (Printf.sprintf "Timeline.read_jsonl: %s in %S" e line)
         in
         match get fields "ev" with
         | "meta" ->
             flush ();
             let fleet =
               match Option.bind (Json.member "fleet" fields) Json.to_str with
               | None | Some "" -> []
               | Some names -> String.split_on_char ';' names
             in
             current :=
               Some
                 ( get fields "scheme",
                   get fields "program",
                   field fields "analytic" Json.to_bool,
                   fleet,
                   [] )
         | _ ->
             let ev = event_of_fields fields in
             (match !current with
             | Some (s, p, a, fl, rev) ->
                 current := Some (s, p, a, fl, ev :: rev)
             | None -> current := Some ("", "", false, [], [ ev ]))
       end
     done
   with End_of_file -> ());
  flush ();
  List.rev !sections
