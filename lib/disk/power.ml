let standby (s : Specs.t) = s.p_standby

let[@inline] speed_fraction (s : Specs.t) ~level =
  float_of_int (Rpm.rpm_of_level s level) /. float_of_int s.rpm_max

let[@inline] idle (s : Specs.t) ~level =
  let frac = speed_fraction s ~level in
  s.p_standby +. ((s.p_idle -. s.p_standby) *. (frac ** s.spindle_exponent))

let active (s : Specs.t) ~level =
  idle s ~level +. ((s.p_active -. s.p_idle) *. speed_fraction s ~level)

let spin_up_power (s : Specs.t) = s.e_spin_up /. s.t_spin_up
let spin_down_power (s : Specs.t) = s.e_spin_down /. s.t_spin_down

let aborted_spin_up_energy (s : Specs.t) ~fraction =
  let fraction = Float.max 0.0 (Float.min 1.0 fraction) in
  fraction *. s.e_spin_up

let tpm_break_even (s : Specs.t) =
  (* Solve E_down + E_up + P_standby (T - t_rt) = P_idle T for T, where
     t_rt is the down+up round trip. *)
  let t_rt = s.t_spin_down +. s.t_spin_up in
  let e_transitions = s.e_spin_down +. s.e_spin_up in
  let t = (e_transitions -. (s.p_standby *. t_rt)) /. (s.p_idle -. s.p_standby) in
  max t t_rt

type gap_plan = {
  level : int;
  spin_down : bool;
  energy : float;
  down_time : float;
  up_time : float;
}

let baseline_gap_energy (s : Specs.t) gap =
  s.p_idle *. max 0.0 gap

let stay_plan (s : Specs.t) gap =
  {
    level = Rpm.max_level s;
    spin_down = false;
    energy = baseline_gap_energy s gap;
    down_time = 0.0;
    up_time = 0.0;
  }

(* What the gap selection reads of a disk model, per level: the RPM
   (transition times are |rpm difference| x the per-RPM time) and the
   idle power (a transition draws the faster end's idle power, exactly
   as [Rpm.transition_energy] computes it). *)
type gap_model = { rpm : int array; idle_power : float array; per_rpm : float }

let gap_model (s : Specs.t) =
  let n = Rpm.num_levels s in
  let rpm = Array.make n 0 and idle_power = Array.make n 0.0 in
  for level = 0 to n - 1 do
    rpm.(level) <- Rpm.rpm_of_level s level;
    idle_power.(level) <- idle s ~level
  done;
  { rpm; idle_power; per_rpm = s.rpm_transition_per_rpm }

let transition_time m a b =
  float_of_int (abs (m.rpm.(a) - m.rpm.(b))) *. m.per_rpm

(* Energy of holding [level] for the gap, both modulations included:
   [down] and [up] are the two transition times, so each transition's
   energy is its faster end's idle power times its time. *)
let level_energy m ~from_level ~to_level gap level ~down ~up =
  (m.idle_power.(max from_level level) *. down)
  +. (m.idle_power.(max level to_level) *. up)
  +. (m.idle_power.(level) *. (gap -. down -. up))

(* The one selection: the first level whose modulations fit inside the
   gap with strictly least energy, or -1 when none fits. *)
let select m ~from_level ~to_level gap =
  let best = ref (-1) and best_energy = ref 0.0 in
  for level = 0 to Array.length m.rpm - 1 do
    let down = transition_time m from_level level
    and up = transition_time m level to_level in
    if not (down +. up > gap) then begin
      let e = level_energy m ~from_level ~to_level gap level ~down ~up in
      if !best < 0 || e < !best_energy then begin
        best := level;
        best_energy := e
      end
    end
  done;
  !best

(* Not even holding an endpoint level fits: hold the higher endpoint and
   charge the direct modulation on top. *)
let fallback_energy m ~from_level ~to_level gap =
  let faster = m.idle_power.(max from_level to_level) in
  (faster *. gap) +. (faster *. transition_time m from_level to_level)

let gap_energy m ~from_level ~to_level gap =
  let gap = max 0.0 gap in
  match select m ~from_level ~to_level gap with
  | -1 -> fallback_energy m ~from_level ~to_level gap
  | level ->
      level_energy m ~from_level ~to_level gap level
        ~down:(transition_time m from_level level)
        ~up:(transition_time m level to_level)

let gap_plan m ~from_level ~to_level gap =
  let gap = max 0.0 gap in
  match select m ~from_level ~to_level gap with
  | -1 ->
      {
        level = max from_level to_level;
        spin_down = false;
        energy = fallback_energy m ~from_level ~to_level gap;
        down_time = 0.0;
        up_time = transition_time m from_level to_level;
      }
  | level ->
      let down = transition_time m from_level level
      and up = transition_time m level to_level in
      {
        level;
        spin_down = false;
        energy = level_energy m ~from_level ~to_level gap level ~down ~up;
        down_time = down;
        up_time = up;
      }

let best_gap_plan s ~from_level ~to_level gap =
  gap_plan (gap_model s) ~from_level ~to_level gap

let best_drpm_plan (s : Specs.t) gap =
  let top = Rpm.max_level s in
  let plan = best_gap_plan s ~from_level:top ~to_level:top gap in
  (* Preserve the historical tie-break: stay at full speed unless the
     plan strictly saves. *)
  if plan.energy < baseline_gap_energy s gap then plan else stay_plan s gap

let best_service_level (s : Specs.t) ~budget ~bytes =
  let top = Rpm.max_level s in
  let rec scan level =
    if level > top then top
    else if Service.request_time s ~level ~bytes <= budget then level
    else scan (level + 1)
  in
  scan 0

let best_tpm_plan (s : Specs.t) gap =
  let stay = stay_plan s gap in
  if gap < tpm_break_even s then stay
  else
    let energy =
      s.e_spin_down +. s.e_spin_up
      +. (s.p_standby *. (gap -. s.t_spin_down -. s.t_spin_up))
    in
    if energy >= stay.energy then stay
    else
      {
        level = Rpm.max_level s;
        spin_down = true;
        energy;
        down_time = s.t_spin_down;
        up_time = s.t_spin_up;
      }
