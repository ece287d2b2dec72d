(** Simulation outcomes: everything the experiments report.

    Energy means disk-subsystem energy; execution time is the completion
    time of the whole application run (paper §4.1). *)

type disk_stats = {
  energy : float;
  busy : Float.Array.t;
      (** Service intervals as interleaved (start, end) pairs — pair [k]
          is [busy.(2k)], [busy.(2k+1)] — sorted by start. *)
  requests : int;
  transitions : int;  (** RPM modulations. *)
  spin_downs : int;
  level_residency : float array;
  standby_time : float;
  transition_time : float;
      (** Seconds spent modulating, spinning down or spinning up. *)
  killed_at : float option;
      (** When a whole-disk failure froze the disk (fault injection),
          else [None].  A dead disk neither serves nor draws power, so
          its busy intervals all end by then. *)
}

(** What fault injection did to the run (all zero without it). *)
type fault_stats = {
  read_retries : int;  (** Transient read errors that forced a re-service. *)
  retry_delay : float;  (** Seconds of completion delay those retries added. *)
  remaps : int;  (** Requests that hit a bad-sector region. *)
  spin_up_recoveries : int;
      (** Spin-up attempts that failed and were retried successfully. *)
  redirects : int;  (** Requests shed from a failed disk onto a survivor. *)
  failed_disks : int;  (** Disks dead by the end of the run. *)
}

val no_faults : fault_stats

val fault_events : fault_stats -> int
(** Total injected-fault events (retries + remaps + recoveries +
    redirects); 0 iff the run was fault-free. *)

type t = {
  scheme : string;
  program : string;
  exec_time : float;  (** Seconds. *)
  energy : float;  (** Joules, summed over disks. *)
  disks : disk_stats array;
  gap_choices : (int * float * int) list;
      (** (disk, time, target level) for every down-modulation decision
          taken; used for the Table 3 misprediction comparison. *)
  faults : fault_stats;
      (** Fault-injection counters ({!no_faults} when replayed without a
          fault spec).  Retried requests re-serve for real, so
          [requests] counts every attempt. *)
}

val requests : t -> int

val horizon : t -> disk:int -> float
(** The end of the disk's part in the run: its kill time when a
    whole-disk failure froze it before [exec_time], else [exec_time]. *)

val idle_gaps : t -> disk:int -> (float * float) list
(** Complement of the disk's busy intervals over [\[0, horizon)] — the
    idle periods an oracle can exploit: sorted, non-empty and separated
    by busy time (touching or overlapping intervals merge, zero-width
    ones are ignored). *)

val normalized_energy : t -> base:t -> float
val normalized_time : t -> base:t -> float

val summary : t -> string
(** One-line human-readable summary. *)
