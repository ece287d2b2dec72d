(* serve-mix: an open-loop load generator driving a [dpmsim serve
   --domains 1] daemon over its Unix-socket wire. *)

module Json = Dpm_util.Json

(* Offered load.  The job mix costs about 30 ms of daemon time per job
   at the reference speed, so the worker is about a quarter busy; a 30 s
   run sends 240 jobs, enough for a p95 with 12 samples beyond it. *)
let rate = 8.0

type client = { daemon : Proc.daemon; conn : Wire.conn }

(* The submit frame of every distinct job, built once. *)
let frames () =
  let t = Hashtbl.create 64 in
  Array.iter
    (fun (job : Jobs.job) ->
      match Dpm_core.Run.to_json (Jobs.spec job) with
      | Ok j ->
          let meter =
            match job.variant with
            | Jobs.Metered -> Some Jobs.meter_resolution
            | Jobs.Plain | Jobs.Stream -> None
          in
          Hashtbl.replace t job.key (Wire.submit_frame ?meter (Json.to_string j))
      | Error e -> failwith (Dpm_core.Run.error_message e))
    (Array.append Jobs.serve_mix [| Jobs.warmup `Serve_mix |]);
  t

let check_exchange digests key (ex : Wire.exchange) =
  match ex.outcome with
  | Error m -> Error (key ^ ": " ^ m)
  | Ok report -> (
      match Digest.of_report report with
      | Error m -> Error (key ^ ": " ^ m)
      | Ok d -> Digest.check digests key d)

(* Start a daemon, connect, see it answer ping and run one warm-up
   job. *)
let start ~exe ~socket ~digests ~frames =
  let daemon = Proc.start_daemon ~exe ~socket in
  let fail m =
    Proc.kill_daemon daemon;
    failwith m
  in
  let conn = match Wire.connect socket with Ok c -> c | Error m -> fail m in
  (match Wire.ping conn with Ok () -> () | Error m -> fail m);
  let warm = Jobs.warmup `Serve_mix in
  (match
     check_exchange digests warm.key
       (Wire.submit conn (Hashtbl.find frames warm.key))
   with
  | Ok () -> ()
  | Error m -> fail ("warm-up: " ^ m));
  { daemon; conn }

let stop s =
  let peak = Proc.peak_rss_mb (string_of_int s.daemon.pid) in
  Wire.shutdown s.conn;
  Wire.close s.conn;
  Proc.reap s.daemon;
  peak

type job_record = {
  key : string;
  due : float;  (** Absolute scheduled send time. *)
  picked : float;  (** When the connection became free for the job. *)
  ex : Wire.exchange;
}

(* Open-loop latency: from the job's scheduled send time to its report,
   so a stall also charges the jobs queued behind it. *)
let latency r = r.ex.finished -. r.due

(* How late the generator itself sent the job: after its due time and
   after the connection became free, whichever came last.  Waiting for
   the connection is queueing, and already counted in [latency]. *)
let lateness r = r.ex.sent -. Float.max r.due r.picked

(* Sends [order.(i)] at [start + due.(i)] over one connection, reading
   each job's frames to its report before the next send; a job that
   falls due meanwhile waits in the client, and its latency still counts
   from its due time.  With one connection the daemon's admission queue
   stays empty, so a finished job's report never waits for the runtime
   lock behind the next job's execution (up to a 50 ms thread tick), an
   effect of the daemon's threading that made the latency tail jump by
   20% between identical runs.

   While no job is in flight the daemon is idle, and the client fills the
   wait with probe samples: they see the CPU the daemon runs on without
   slowing it, and they keep that CPU busy, so a job never starts on a
   CPU waking from sleep.  The last fraction of a sample's length before
   the due time is spun. *)
let drive s ~frames ~due ~(order : Jobs.job array) =
  let probes = ref [] in
  let start = Probe.now () +. 0.05 in
  let records =
    Array.mapi
      (fun i (job : Jobs.job) ->
        let picked = Probe.now () in
        let due_at = start +. due.(i) in
        let rec wait () =
          let now = Probe.now () in
          if due_at -. now > 3.0 *. Probe.ref_s then begin
            probes := (now, Probe.sample ()) :: !probes;
            wait ()
          end
          else if now < due_at then wait ()
        in
        wait ();
        let ex = Wire.submit s.conn (Hashtbl.find frames job.key) in
        { key = job.key; due = due_at; picked; ex })
      order
  in
  (start, records, Array.of_list (List.rev !probes))

(* A job's latency restated at the reference speed, using the last probe
   sample before it was due and the first after it finished. *)
let normalized_latency probes r =
  let before = ref None and after = ref None in
  Array.iter
    (fun (t, p) ->
      if t <= r.due then before := Some p
      else if t >= r.ex.finished && !after = None then after := Some p)
    probes;
  let speed =
    match (!before, !after) with
    | Some a, Some b -> (a +. b) /. 2.0
    | Some a, None | None, Some a -> a
    | None, None -> Probe.ref_s
  in
  latency r *. Probe.ref_s /. speed

(* The median over job kinds of each kind's median latency.  A median
   over single jobs sits between job classes, where one shifted job
   moves it (13% spread over ten seeds, against 4% for this). *)
let kind_median records latencies =
  let by_kind = Hashtbl.create 32 in
  Array.iteri
    (fun i r ->
      Hashtbl.replace by_kind r.key
        (latencies.(i) :: Option.value ~default:[] (Hashtbl.find_opt by_kind r.key)))
    records;
  Hashtbl.fold (fun _ l acc -> Stats.median (Array.of_list l) :: acc) by_kind []
  |> Array.of_list |> Stats.median
