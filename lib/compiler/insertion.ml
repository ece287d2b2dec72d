module Ir = Dpm_ir
module Power = Dpm_disk.Power
module Rpm = Dpm_disk.Rpm

type scheme = Tpm | Drpm

type decision = {
  disk : int;
  window : Dap.window;
  plan : Power.gap_plan;
  from_level : int;
  to_level : int;
  down_at : int * int;
  up_at : (int * int) option;
}

let preactivation_distance ~t_su ~s ~t_m =
  if s +. t_m <= 0.0 then invalid_arg "preactivation_distance: zero period";
  int_of_float (ceil (t_su /. (s +. t_m)))

type point = { ordinal : int; rank : int; call : Ir.Loop.pm_call }
(* [rank] orders calls that land on the same iteration boundary:
   pre-activations and serving-speed settings (0) ahead of low-power
   calls (1). *)

type planned = {
  decisions : decision list;
  points : (int, point list) Hashtbl.t;  (* per top-level item *)
}

let add_point points item pt =
  Hashtbl.replace points item
    (pt :: Option.value ~default:[] (Hashtbl.find_opt points item))

(* Serving level for an active window: lowest speed whose total service
   demand fits the window's span (plus a quarter of the following idle
   gap for the tail), with a safety margin against estimation error.
   Intra-window jitter is absorbed by the disk queue, so the constraint
   is on throughput — the same criterion the oracle applies. *)
let serving_level ~specs ~request_bytes ~next_gap (w : Dap.window) =
  let top = Rpm.max_level specs in
  let span = w.Dap.t_end -. w.Dap.t_start in
  if w.Dap.requests <= 0 || span <= 0.0 then top
  else
    (* The tail may eat a little of the following gap, but never more
       than the bounded disk queue can hold without stalling the
       application. *)
    let tail = min (0.15 *. next_gap) 0.2 in
    let budget = 0.65 *. (span +. tail) /. float_of_int w.Dap.requests in
    Power.best_service_level specs ~budget ~bytes:request_bytes

let plan_drpm ~specs ~pm_overhead ~pre_lead ~request_bytes ~serve_slow (dap : Dap.t)
    (est : Estimate.t) =
  let top = Rpm.max_level specs in
  let nitems = Array.length est.Estimate.starts in
  let decisions = ref [] in
  let points = Hashtbl.create 16 in
  for disk = 0 to dap.Dap.ndisks - 1 do
    let windows = Array.of_list dap.Dap.windows.(disk) in
    let n = Array.length windows in
    let level_of_active i =
      if not serve_slow then top
      else
      let next_gap =
        if i + 1 < n && windows.(i + 1).Dap.state = Dap.Idle then
          windows.(i + 1).Dap.t_end -. windows.(i + 1).Dap.t_start
        else 0.0
      in
      serving_level ~specs ~request_bytes ~next_gap windows.(i)
    in
    let cur_level = ref top in
    for i = 0 to n - 1 do
      let w = windows.(i) in
      match w.Dap.state with
      | Dap.Active ->
          let ls = level_of_active i in
          (* Normally the preceding idle window's pre-activation has
             already set the serving level; corrections are needed after
             adjacent active windows (or at the very start).  A speed-up
             must complete before this phase's dense traffic begins, so
             it is pre-activated inside the previous window; a slow-down
             is placed at the phase start, where this phase's own slack
             absorbs the modulation. *)
          if ls > !cur_level then begin
            let t_pre =
              w.Dap.t_start
              -. Rpm.transition_time specs ~from_level:!cur_level ~to_level:ls
              -. (4.0 *. pm_overhead)
            in
            let ui, uord = Estimate.locate est t_pre in
            add_point points ui
              {
                ordinal = uord;
                rank = 0;
                call = Ir.Loop.Set_rpm { level = ls; disk };
              }
          end
          else if ls < !cur_level then
            add_point points w.Dap.start_item
              {
                ordinal = w.Dap.start_ord;
                rank = 0;
                call = Ir.Loop.Set_rpm { level = ls; disk };
              };
          cur_level := ls
      | Dap.Idle ->
          let gap = w.Dap.t_end -. w.Dap.t_start in
          let trailing = w.Dap.end_item >= nitems in
          let next_level =
            if trailing then !cur_level
            else if i + 1 < n && windows.(i + 1).Dap.state = Dap.Active then
              level_of_active (i + 1)
            else top
          in
          let plan =
            Power.best_gap_plan specs ~from_level:!cur_level
              ~to_level:next_level gap
          in
          let down_at = (w.Dap.start_item, w.Dap.start_ord) in
          let up_at =
            (* Pre-activate only upward transitions: a slower next phase
               can absorb its own modulation at its first access, and an
               early down-change would block the tail of this window's
               preceding burst. *)
            if trailing || next_level <= plan.Power.level then None
            else
              (* Guard band: the timing estimate is noisy, so fire the
                 pre-activation early by a fraction of the gap rather
                 than cutting it exactly to the modulation time. *)
              let guard = max pm_overhead (0.25 *. gap) +. pre_lead in
              let t_pre = w.Dap.t_end -. plan.Power.up_time -. guard in
              Some (Estimate.locate est t_pre)
          in
          (* A pre-activation landing at or before the low-power point
             means the window is too short for this code granularity. *)
          let degenerate =
            plan.Power.level <> !cur_level
            && match up_at with
               | Some u -> compare u down_at <= 0
               | None -> false
          in
          if not degenerate then begin
            if plan.Power.level <> !cur_level then
              add_point points w.Dap.start_item
                {
                  ordinal = w.Dap.start_ord;
                  rank = 1;
                  call = Ir.Loop.Set_rpm { level = plan.Power.level; disk };
                };
            (match up_at with
            | None -> ()
            | Some (ui, uord) ->
                add_point points ui
                  {
                    ordinal = uord;
                    rank = 0;
                    call = Ir.Loop.Set_rpm { level = next_level; disk };
                  });
            if plan.Power.level < top then
              decisions :=
                {
                  disk;
                  window = w;
                  plan;
                  from_level = !cur_level;
                  to_level = next_level;
                  down_at;
                  up_at;
                }
                :: !decisions;
            cur_level :=
              (if trailing || next_level <= plan.Power.level then
                 plan.Power.level
               else next_level)
          end
    done
  done;
  { decisions = List.rev !decisions; points }

let plan_tpm ~specs ~pm_overhead ~pre_lead (dap : Dap.t) (est : Estimate.t) =
  let nitems = Array.length est.Estimate.starts in
  let decisions = ref [] in
  let points = Hashtbl.create 16 in
  for disk = 0 to dap.Dap.ndisks - 1 do
    List.iter
      (fun (w : Dap.window) ->
        let gap = w.Dap.t_end -. w.Dap.t_start in
        let plan = Power.best_tpm_plan specs gap in
        if plan.Power.spin_down then begin
          let down_at = (w.Dap.start_item, w.Dap.start_ord) in
          let trailing = w.Dap.end_item >= nitems in
          let up_at =
            if trailing then None
            else
              let guard = max pm_overhead (0.25 *. gap) +. pre_lead in
              let t_pre = w.Dap.t_end -. plan.Power.up_time -. guard in
              Some (Estimate.locate est t_pre)
          in
          let degenerate =
            match up_at with Some u -> compare u down_at <= 0 | None -> false
          in
          if not degenerate then begin
            add_point points w.Dap.start_item
              { ordinal = w.Dap.start_ord; rank = 1; call = Ir.Loop.Spin_down disk };
            (match up_at with
            | None -> ()
            | Some (ui, uord) ->
                add_point points ui
                  { ordinal = uord; rank = 0; call = Ir.Loop.Spin_up disk });
            decisions :=
              {
                disk;
                window = w;
                plan;
                from_level = 0;
                to_level = 0;
                down_at;
                up_at;
              }
              :: !decisions
          end
        end)
      (Dap.idle_windows dap ~disk)
  done;
  { decisions = List.rev !decisions; points }

(* --- Code modification --- *)

let split_loop (l : Ir.Loop.t) points =
  let closed x = invalid_arg ("Insertion: unbound iterator " ^ x) in
  let lo = Ir.Expr.eval closed l.lo and hi = Ir.Expr.eval closed l.hi in
  let trips = if hi < lo then 0 else ((hi - lo) / l.step) + 1 in
  let segment a b =
    (* Iterations with ordinals in [a, b). *)
    if b <= a then None
    else
      Some
        (Ir.Loop.For
           {
             l with
             lo = Ir.Expr.Const (lo + (a * l.step));
             hi = Ir.Expr.Const (lo + ((b - 1) * l.step));
           })
  in
  let nodes = ref [] in
  let cursor = ref 0 in
  List.iter
    (fun p ->
      let ord = max 0 (min p.ordinal trips) in
      (match segment !cursor ord with
      | Some n -> nodes := n :: !nodes
      | None -> ());
      cursor := max !cursor ord;
      nodes := Ir.Loop.Call p.call :: !nodes)
    points;
  (match segment !cursor trips with
  | Some n -> nodes := n :: !nodes
  | None -> ());
  List.rev !nodes

let insert ~specs ?(pm_overhead = 2.0e-6) ?(pre_lead = 0.0)
    ?(request_bytes = Dpm_util.Units.kib 64) ?(serve_slow = true) scheme
    (p : Ir.Program.t) dap est =
  let planned =
    match scheme with
    | Tpm -> plan_tpm ~specs ~pm_overhead ~pre_lead dap est
    | Drpm ->
        plan_drpm ~specs ~pm_overhead ~pre_lead ~request_bytes ~serve_slow dap
          est
  in
  let body =
    List.concat
      (List.mapi
         (fun item node ->
           match Hashtbl.find_opt planned.points item with
           | None -> [ node ]
           | Some pts -> (
               let pts =
                 List.sort
                   (fun a b -> compare (a.ordinal, a.rank) (b.ordinal, b.rank))
                   pts
               in
               match node with
               | Ir.Loop.For l -> split_loop l pts
               | Ir.Loop.Stmt _ | Ir.Loop.Call _ ->
                   List.map (fun pt -> Ir.Loop.Call pt.call) pts @ [ node ]))
         p.Ir.Program.body)
  in
  (Ir.Program.with_body p body, planned.decisions)
