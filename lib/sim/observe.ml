(* Replay observation (telemetry histograms).

   Hot-loop discipline: each replay accumulates into its own local
   histograms (no lock, no effect on simulated values) and merges them
   into Dpm_util.Telemetry.global once at the end.  Bucket-count merges
   are exactly commutative and associative, so the registered quantiles
   are identical at any [--domains].  [None] when histograms are off:
   the per-request cost is then a single match on [None] (the
   specialized replay core hoists even that match out of the loop). *)

type t = {
  latency : Dpm_util.Histo.t;  (* per-request service latency, s *)
  qdepth : Dpm_util.Histo.t;  (* outstanding requests at arrival *)
  retries : Dpm_util.Histo.t;  (* transient read retries per request *)
  wait : Dpm_util.Histo.t;  (* queue wait: dispatch - arrival, s *)
  seek : Dpm_util.Histo.t;  (* head travel per dispatch, stripe units *)
}

let make () =
  if Dpm_util.Telemetry.(histograms_enabled global) then
    Some
      {
        latency = Dpm_util.Histo.create ();
        qdepth = Dpm_util.Histo.create ();
        retries = Dpm_util.Histo.create ();
        wait = Dpm_util.Histo.create ();
        seek = Dpm_util.Histo.create ();
      }
  else None

(* Queue depth seen by a request: the [queued] requests still waiting
   in its disk's deferred queue, plus the completions in the ring still
   in the future at its arrival time — the requests issued to that disk
   and not yet done (under FCFS every request issues on arrival, so
   [queued] is 0; under a deferred discipline the ring holds at most the
   one in service). *)
let arrival o ~ring ~queued ~arrival =
  let outstanding = ref queued in
  Array.iter (fun c -> if c > arrival then incr outstanding) ring;
  Dpm_util.Histo.add o.qdepth (float_of_int !outstanding)

let service o ~fault ~retries_before ~response =
  Dpm_util.Histo.add o.latency response;
  match fault with
  | None -> ()
  | Some fs ->
      Dpm_util.Histo.add o.retries
        (float_of_int (Fault.retries_so_far fs - retries_before))

let observe_arrival obs ~ring ~queued ~arrival:at =
  match obs with None -> () | Some o -> arrival o ~ring ~queued ~arrival:at

let observe_service obs ~fault ~retries_before ~response =
  match obs with
  | None -> ()
  | Some o -> service o ~fault ~retries_before ~response

(* Scheduler dispatch: queue wait and absolute head travel.  Only the
   deferred disciplines call this, so FCFS runs keep these histograms
   empty and [flush] never registers them. *)
let observe_dispatch obs ~wait ~seek_blocks =
  match obs with
  | None -> ()
  | Some o ->
      Dpm_util.Histo.add o.wait wait;
      Dpm_util.Histo.add o.seek (float_of_int (abs seek_blocks))

let retries_before obs fault =
  match (obs, fault) with
  | Some _, Some fs -> Fault.retries_so_far fs
  | _ -> 0

let flush obs (result : Result.t) =
  match obs with
  | None -> ()
  | Some o ->
      let t = Dpm_util.Telemetry.global in
      Dpm_util.Telemetry.merge_histogram t "sim.service_latency_s" o.latency;
      Dpm_util.Telemetry.merge_histogram t "sim.queue_depth" o.qdepth;
      if Dpm_util.Histo.count o.retries > 0 then
        Dpm_util.Telemetry.merge_histogram t "sim.fault.retries_per_req"
          o.retries;
      if Dpm_util.Histo.count o.wait > 0 then
        Dpm_util.Telemetry.merge_histogram t "sim.sched.wait_s" o.wait;
      if Dpm_util.Histo.count o.seek > 0 then
        Dpm_util.Telemetry.merge_histogram t "sim.sched.seek_blocks" o.seek;
      (* Actual idle-gap lengths, read off the finished result — the
         empirical side of the compiler's predicted-gap histogram. *)
      let gaps = Dpm_util.Histo.create () in
      Array.iteri
        (fun d _ ->
          List.iter
            (fun (a, b) -> Dpm_util.Histo.add gaps (b -. a))
            (Result.idle_gaps result ~disk:d))
        result.Result.disks;
      if Dpm_util.Histo.count gaps > 0 then
        Dpm_util.Telemetry.merge_histogram t "sim.idle_gap.actual_s" gaps
