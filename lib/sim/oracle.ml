module Power = Dpm_disk.Power
module Rpm = Dpm_disk.Rpm
module Specs = Dpm_disk.Specs

let burst_threshold = 0.5

type phase =
  | Burst of { span : float * float; level : int; service : float }
  | Gap of {
      span : float * float;
      from_level : int;
      to_level : int;
      plan : Power.gap_plan;
    }

(* The oracle's schedule is the exact optimum of a dynamic program over
   (phase, level): bursts hold one level for their whole extent (a disk
   cannot modulate mid-stream), gaps may dip to any intermediate level
   whose modulations fit.  The all-top path is always feasible, so the
   oracle never loses to Base.  The disk model is tabulated once per
   disk: per-level powers and service-time scales, and the gap
   selection's {!Power.gap_model}. *)
let phases ?(config = Config.default) (base : Result.t) ~disk =
  let specs = Config.model config ~disk in
  let top = Rpm.max_level specs in
  let nlevels = Rpm.num_levels specs in
  let model = Power.gap_model specs in
  let active = Array.init nlevels (fun level -> Power.active specs ~level)
  and idle = Array.init nlevels (fun level -> Power.idle specs ~level) in
  (* Service time of a request at a level, given its full-speed time:
     seek is speed-independent, rotation and transfer scale with
     1/RPM. *)
  let scale =
    Array.init nlevels (fun level ->
        float_of_int specs.Specs.rpm_max
        /. float_of_int (Rpm.rpm_of_level specs level))
  in
  let seek = specs.Specs.avg_seek in
  let busy = base.Result.disks.(disk).Result.busy in
  let horizon = Result.horizon base ~disk in
  let start k = Float.Array.get busy (2 * k)
  and stop k = Float.Array.get busy ((2 * k) + 1) in
  (* Total service time of the burst of intervals [first .. last] at a
     level.  A level keeps the burst work-conserving on average when
     this demand fits the burst's span (plus a little of the following
     gap for the tail) — intra-burst jitter is absorbed by the disk
     queue, so the constraint is on throughput, not on each request's
     own slack. *)
  let demand first last level =
    let acc = ref 0.0 in
    for k = first to last do
      acc := !acc +. (seek +. ((stop k -. start k -. seek) *. scale.(level)))
    done;
    !acc
  in
  (* Phase skeletons covering [0, horizon] (a dead disk's schedule ends
     at its kill), in one pass over the busy column: a burst is the
     index range [first, last] of intervals each starting less than
     [burst_threshold] after its predecessor ends. *)
  let skeleton = ref [] in
  let cursor = ref 0.0 in
  let n = Float.Array.length busy / 2 in
  let first = ref 0 in
  for k = 1 to n do
    if k = n || start k -. stop (k - 1) >= burst_threshold then begin
      let lo = start !first and hi = stop (k - 1) in
      let next_start = if k < n then start k else horizon in
      if lo > !cursor then skeleton := `Gap (!cursor, lo) :: !skeleton;
      skeleton :=
        `Burst (!first, k - 1, lo, hi, 0.25 *. (next_start -. hi)) :: !skeleton;
      cursor := hi;
      first := k
    end
  done;
  if horizon > !cursor then skeleton := `Gap (!cursor, horizon) :: !skeleton;
  let skeleton = List.rev !skeleton in
  (* DP forward pass.  dp.(l) = cheapest cost of ending the phases so
     far at level l. *)
  let inf = infinity in
  let dp = Array.make nlevels inf in
  dp.(top) <- 0.0;
  (* Per phase, remember each burst's service per level (computed once
     per reachable level; NaN elsewhere) and, for each gap's exit level,
     its entry level. *)
  let trace_back = ref [] in
  List.iter
    (fun phase ->
      match phase with
      | `Burst (i, j, first, last, tail_slack) ->
          let span = last -. first in
          let service = Array.make nlevels Float.nan in
          let dp' = Array.make nlevels inf in
          for l = 0 to nlevels - 1 do
            if dp.(l) < inf then begin
              let s = demand i j l in
              service.(l) <- s;
              if l = top || s <= span +. tail_slack then begin
                let e =
                  dp.(l)
                  +. ((active.(l) *. s) +. (idle.(l) *. max 0.0 (span -. s)))
                in
                if e < dp'.(l) then dp'.(l) <- e
              end
            end
          done;
          Array.blit dp' 0 dp 0 nlevels;
          trace_back := `Burst_choice (i, j, service) :: !trace_back
      | `Gap (lo, hi) ->
          let gap = hi -. lo in
          let dp' = Array.make nlevels inf in
          let from_of = Array.make nlevels (-1) in
          for from_level = 0 to nlevels - 1 do
            if dp.(from_level) < inf then
              for to_level = 0 to nlevels - 1 do
                let e =
                  dp.(from_level)
                  +. Power.gap_energy model ~from_level ~to_level gap
                in
                if e < dp'.(to_level) then begin
                  dp'.(to_level) <- e;
                  from_of.(to_level) <- from_level
                end
              done
          done;
          Array.blit dp' 0 dp 0 nlevels;
          trace_back := `Gap_choice (lo, hi, from_of) :: !trace_back)
    skeleton;
  (* Reconstruct: end at the cheapest exit level. *)
  let final = ref top in
  Array.iteri (fun l c -> if c < dp.(!final) then final := l) dp;
  let result = ref [] in
  let level = ref !final in
  List.iter
    (fun step ->
      match step with
      | `Burst_choice (i, j, service) ->
          let l = !level in
          let service =
            if Float.is_nan service.(l) then demand i j l else service.(l)
          in
          result := `Burst_at (l, service) :: !result
      | `Gap_choice (lo, hi, from_of) ->
          let from_level = if from_of.(!level) < 0 then top else from_of.(!level) in
          result := `Gap_at (lo, hi, from_level, !level) :: !result;
          level := from_level)
    !trace_back;
  (* !result is already in forward phase order: the backward walk over
     the reversed trace prepends each phase's choice. *)
  let recon = !result in
  let rec emit skel recon =
    match (skel, recon) with
    | [], [] -> []
    | `Burst (_, _, first, last, _) :: skel',
      `Burst_at (level, service) :: recon' ->
        Burst { span = (first, last); level; service } :: emit skel' recon'
    | `Gap (lo, hi) :: skel', `Gap_at (_, _, from_level, to_level) :: recon' ->
        Gap
          {
            span = (lo, hi);
            from_level;
            to_level;
            plan = Power.gap_plan model ~from_level ~to_level (hi -. lo);
          }
        :: emit skel' recon'
    | _ -> invalid_arg "Oracle.phases: reconstruction mismatch"
  in
  emit skeleton recon

let gap_plans ?config base ~disk =
  List.filter_map
    (function
      | Gap { span; plan; _ } -> Some (span, plan)
      | Burst _ -> None)
    (phases ?config base ~disk)

let emit_opt timeline ev =
  match timeline with Some sink -> Timeline.emit sink ev | None -> ()

let emit_span timeline ~disk state t0 t1 =
  if t1 > t0 then emit_opt timeline (Timeline.Span { disk; state; t0; t1 })

let idrpm ?(config = Config.default) ?timeline (base : Result.t) =
  let gap_choices = ref [] in
  let disks =
    Array.mapi
      (fun disk_id (d : Result.disk_stats) ->
        let specs = Config.model config ~disk:disk_id in
        let top = Rpm.max_level specs in
        let nlevels = Rpm.num_levels specs in
        let residency = Array.make nlevels 0.0 in
        let energy = ref 0.0 in
        let transitions = ref 0 in
        let trans_time = ref 0.0 in
        List.iter
          (fun phase ->
            match phase with
            | Burst { span = lo, hi; level; service } ->
                energy :=
                  !energy
                  +. (Power.active specs ~level *. service)
                  +. (Power.idle specs ~level
                     *. max 0.0 (hi -. lo -. service));
                residency.(level) <- residency.(level) +. (hi -. lo);
                emit_opt timeline
                  (Timeline.Service
                     {
                       disk = disk_id;
                       level;
                       arrival = lo;
                       t0 = lo;
                       t1 = lo +. service;
                       bytes = 0;
                     });
                emit_span timeline ~disk:disk_id (Timeline.Ready level)
                  (lo +. service) hi
            | Gap { span = lo, hi; from_level; to_level; plan } ->
                let gap = hi -. lo in
                Dpm_util.Telemetry.observe Dpm_util.Telemetry.global
                  "oracle.idle_gap.predicted_s" gap;
                energy := !energy +. plan.Power.energy;
                let inner =
                  hi -. lo -. plan.Power.down_time -. plan.Power.up_time
                in
                residency.(plan.Power.level) <-
                  residency.(plan.Power.level) +. max 0.0 inner;
                if plan.Power.down_time > 0.0 then transitions := !transitions + 1;
                if plan.Power.up_time > 0.0 then transitions := !transitions + 1;
                trans_time :=
                  !trans_time +. plan.Power.down_time +. plan.Power.up_time;
                if plan.Power.level < top then
                  gap_choices := (disk_id, lo, plan.Power.level) :: !gap_choices;
                emit_opt timeline
                  (Timeline.Mark
                     {
                       disk = disk_id;
                       t = lo;
                       mark =
                         Timeline.Gap_decision
                           {
                             predicted = gap;
                             level = plan.Power.level;
                             spin_down = plan.Power.spin_down;
                           };
                     });
                if plan.Power.down_time +. plan.Power.up_time > gap then begin
                  (* Non-physical fallback: hold the higher endpoint for
                     the whole gap, with the direct modulation charged on
                     top (it overlaps the tail — analytic logs only). *)
                  emit_span timeline ~disk:disk_id
                    (Timeline.Ready plan.Power.level) lo hi;
                  emit_span timeline ~disk:disk_id
                    (Timeline.Changing { from_level; to_level })
                    (hi -. plan.Power.up_time) hi
                end
                else begin
                  emit_span timeline ~disk:disk_id
                    (Timeline.Changing
                       { from_level; to_level = plan.Power.level })
                    lo
                    (lo +. plan.Power.down_time);
                  emit_span timeline ~disk:disk_id
                    (Timeline.Ready plan.Power.level)
                    (lo +. plan.Power.down_time)
                    (hi -. plan.Power.up_time);
                  emit_span timeline ~disk:disk_id
                    (Timeline.Changing
                       { from_level = plan.Power.level; to_level })
                    (hi -. plan.Power.up_time)
                    hi
                end)
          (phases ~config base ~disk:disk_id);
        Option.iter
          (fun t ->
            emit_opt timeline
              (Timeline.Mark { disk = disk_id; t; mark = Timeline.Killed }))
          d.Result.killed_at;
        {
          Result.energy = !energy;
          busy = d.Result.busy;
          requests = d.Result.requests;
          transitions = !transitions;
          spin_downs = 0;
          level_residency = residency;
          standby_time = 0.0;
          transition_time = !trans_time;
          killed_at = d.Result.killed_at;
        })
      base.Result.disks
  in
  Option.iter
    (fun sink ->
      Timeline.close ~analytic:true sink ~scheme:"IDRPM"
        ~program:base.Result.program ~config base.Result.exec_time)
    timeline;
  {
    Result.scheme = "IDRPM";
    program = base.Result.program;
    exec_time = base.Result.exec_time;
    energy =
      Array.fold_left
        (fun acc (d : Result.disk_stats) -> acc +. d.Result.energy)
        0.0 disks;
    disks;
    gap_choices =
      List.sort
        (fun (d1, t1, _) (d2, t2, _) -> compare (d1, t1) (d2, t2))
        !gap_choices;
    faults = base.Result.faults;
  }

(* ITPM: full-speed service, oracle spin-down decisions per gap. *)
let itpm ?(config = Config.default) ?timeline (base : Result.t) =
  let disks =
    Array.mapi
      (fun disk_id (d : Result.disk_stats) ->
        let specs = Config.model config ~disk:disk_id in
        let top = Rpm.max_level specs in
        (* With a sink, collect the disk's events, then emit them
           chronologically: the pre-activation scan over the log is
           order-sensitive (a spin-up must precede the service that
           claims its wake-up).  Without one, build none. *)
        let recording = Option.is_some timeline in
        let pending = ref [] in
        let record ev = pending := ev :: !pending in
        let record_span state t0 t1 =
          if recording && t1 > t0 then
            record (Timeline.Span { disk = disk_id; state; t0; t1 })
        in
        let busy = d.Result.busy in
        let busy_time = ref 0.0 in
        for k = 0 to (Float.Array.length busy / 2) - 1 do
          let a = Float.Array.get busy (2 * k)
          and b = Float.Array.get busy ((2 * k) + 1) in
          busy_time := !busy_time +. (b -. a);
          if recording then
            record
              (Timeline.Service
                 {
                   disk = disk_id;
                   level = top;
                   arrival = a;
                   t0 = a;
                   t1 = b;
                   bytes = 0;
                 })
        done;
        let busy_time = !busy_time in
        let active_energy = Power.active specs ~level:top *. busy_time in
        let residency = Array.make (Rpm.num_levels specs) 0.0 in
        residency.(top) <- busy_time;
        let gap_energy = ref 0.0 in
        let spin_downs = ref 0 in
        let standby_time = ref 0.0 in
        let trans_time = ref 0.0 in
        List.iter
          (fun (lo, hi) ->
            let plan = Power.best_tpm_plan specs (hi -. lo) in
            Dpm_util.Telemetry.observe Dpm_util.Telemetry.global
              "oracle.idle_gap.predicted_s" (hi -. lo);
            gap_energy := !gap_energy +. plan.Power.energy;
            let inner = hi -. lo -. plan.Power.down_time -. plan.Power.up_time in
            if recording then
              record
                (Timeline.Mark
                   {
                     disk = disk_id;
                     t = lo;
                     mark =
                       Timeline.Gap_decision
                         {
                           predicted = hi -. lo;
                           level = top;
                           spin_down = plan.Power.spin_down;
                         };
                   });
            if plan.Power.spin_down then begin
              incr spin_downs;
              standby_time := !standby_time +. inner;
              trans_time :=
                !trans_time +. plan.Power.down_time +. plan.Power.up_time;
              record_span Timeline.Spinning_down lo (lo +. plan.Power.down_time);
              record_span Timeline.Standby
                (lo +. plan.Power.down_time)
                (hi -. plan.Power.up_time);
              record_span Timeline.Spinning_up (hi -. plan.Power.up_time) hi
            end
            else begin
              residency.(top) <- residency.(top) +. (hi -. lo);
              record_span (Timeline.Ready top) lo hi
            end)
          (Result.idle_gaps base ~disk:disk_id);
        if recording then
          Option.iter
            (fun t ->
              record
                (Timeline.Mark { disk = disk_id; t; mark = Timeline.Killed }))
            d.Result.killed_at;
        (match timeline with
        | None -> ()
        | Some sink ->
            let start = function
              | Timeline.Span { t0; _ }
              | Timeline.Service { t0; _ }
              | Timeline.Occupy { t0; _ }
              | Timeline.Aborted { t0; _ } ->
                  t0
              | Timeline.Mark { t; _ } -> t
              | Timeline.Sim_end t -> t
            in
            List.iter (Timeline.emit sink)
              (List.stable_sort
                 (fun a b -> compare (start a) (start b))
                 (List.rev !pending)));
        {
          Result.energy = active_energy +. !gap_energy;
          busy = d.Result.busy;
          requests = d.Result.requests;
          transitions = 0;
          spin_downs = !spin_downs;
          level_residency = residency;
          standby_time = !standby_time;
          transition_time = !trans_time;
          killed_at = d.Result.killed_at;
        })
      base.Result.disks
  in
  Option.iter
    (fun sink ->
      Timeline.close ~analytic:true sink ~scheme:"ITPM"
        ~program:base.Result.program ~config base.Result.exec_time)
    timeline;
  {
    Result.scheme = "ITPM";
    program = base.Result.program;
    exec_time = base.Result.exec_time;
    energy =
      Array.fold_left
        (fun acc (d : Result.disk_stats) -> acc +. d.Result.energy)
        0.0 disks;
    disks;
    gap_choices = [];
    faults = base.Result.faults;
  }
