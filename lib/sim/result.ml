type disk_stats = {
  energy : float;
  busy : (float * float) list;
  requests : int;
  transitions : int;
  spin_downs : int;
  level_residency : float array;
  standby_time : float;
  transition_time : float;
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

let idle_gaps t ~disk =
  let stats = t.disks.(disk) in
  let busy = Dpm_util.Interval.of_list stats.busy in
  Dpm_util.Interval.to_list
    (Dpm_util.Interval.complement ~lo:0.0 ~hi:t.exec_time busy)

let normalized_energy t ~base = Dpm_util.Stats.ratio t.energy base.energy

let normalized_time t ~base =
  Dpm_util.Stats.ratio t.exec_time base.exec_time

let summary t =
  Printf.sprintf "%s/%s: energy %.2f J, time %.2f s, %d requests" t.program
    t.scheme t.energy t.exec_time (requests t)
