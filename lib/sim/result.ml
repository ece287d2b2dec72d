type disk_stats = {
  energy : float;
  busy : Float.Array.t;
  requests : int;
  transitions : int;
  spin_downs : int;
  level_residency : float array;
  standby_time : float;
  transition_time : float;
  killed_at : float option;
}

type fault_stats = {
  read_retries : int;
  retry_delay : float;
  remaps : int;
  spin_up_recoveries : int;
  redirects : int;
  failed_disks : int;
}

let no_faults =
  {
    read_retries = 0;
    retry_delay = 0.0;
    remaps = 0;
    spin_up_recoveries = 0;
    redirects = 0;
    failed_disks = 0;
  }

let fault_events f = f.read_retries + f.remaps + f.spin_up_recoveries + f.redirects

type t = {
  scheme : string;
  program : string;
  exec_time : float;
  energy : float;
  disks : disk_stats array;
  gap_choices : (int * float * int) list;
  faults : fault_stats;
}

let requests t = Array.fold_left (fun n d -> n + d.requests) 0 t.disks

let horizon t ~disk =
  match t.disks.(disk).killed_at with
  | Some k when k < t.exec_time -> k
  | Some _ | None -> t.exec_time

(* One pass over the sorted busy column: overlapping or touching pairs
   merge into a run [lo, hi), and the gap before each run is emitted as
   the run closes.  Comparisons are [Stdlib.min]/[max]'s, so every
   bound is the float the merge-then-complement algebra produces. *)
let idle_gaps t ~disk =
  let busy = t.disks.(disk).busy and horizon = horizon t ~disk in
  let gaps = ref [] and cursor = ref 0.0 in
  let run_lo = ref 0.0 and run_hi = ref 0.0 and in_run = ref false in
  let close_run () =
    let upto = if !run_lo <= horizon then !run_lo else horizon in
    if upto > !cursor then gaps := (!cursor, upto) :: !gaps;
    if !run_hi > !cursor then cursor := !run_hi
  in
  for k = 0 to (Float.Array.length busy / 2) - 1 do
    let lo = Float.Array.get busy (2 * k)
    and hi = Float.Array.get busy ((2 * k) + 1) in
    if hi > lo then
      if !in_run && lo <= !run_hi then (if hi > !run_hi then run_hi := hi)
      else begin
        if !in_run then close_run ();
        run_lo := lo;
        run_hi := hi;
        in_run := true
      end
  done;
  if !in_run then close_run ();
  if horizon > !cursor then gaps := (!cursor, horizon) :: !gaps;
  List.rev !gaps

let normalized_energy t ~base = Dpm_util.Stats.ratio t.energy base.energy

let normalized_time t ~base =
  Dpm_util.Stats.ratio t.exec_time base.exec_time

let summary t =
  Printf.sprintf "%s/%s: energy %.2f J, time %.2f s, %d requests" t.program
    t.scheme t.energy t.exec_time (requests t)
