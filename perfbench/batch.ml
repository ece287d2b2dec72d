(* The closed-loop batch workloads, suite-grid and trace-replay: one
   client, one domain, jobs back to back through [Run.exec_all]. *)

type outcome = {
  times : float list array;
      (** Per catalogue kind, probe-normalized seconds of each run. *)
  raw : float list array;  (** The same runs in host seconds. *)
  requests : int array;  (** Per kind, simulated disk requests of one run. *)
  attempted : int;
  failed : int;
  errors : string list;
}

let requests_of results =
  List.fold_left
    (fun n (_, r) -> n + Dpm_sim.Result.requests r)
    0 results

(* Works through seeded rounds of the catalogue until [seconds] have
   passed and every kind has run at least once.  Each job is one
   {!Probe.timed} interval. *)
let run ~log ~digests ~seed ~seconds (catalogue : Jobs.job array) =
  let n = Array.length catalogue in
  let times = Array.make n [] and raw = Array.make n [] in
  let requests = Array.make n 0 in
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  Gc.full_major ();
  let before = ref (Probe.sample_into log) in
  let t_start = Probe.now () in
  let finished () =
    Probe.now () -. t_start >= seconds && Array.for_all (fun l -> l <> []) times
  in
  let r = ref 0 in
  while not (finished ()) do
    let order = Jobs.round ~seed ~n !r in
    let i = ref 0 in
    while !i < n && not (finished ()) do
      let k = order.(!i) in
      let res, norm, host, after, inside =
        Probe.timed ~before:!before (fun () -> Exec.checked digests catalogue.(k))
      in
      log.Probe.samples <- (after :: inside) @ log.Probe.samples;
      incr attempted;
      (match res with
      | Ok results -> requests.(k) <- requests_of results
      | Error m ->
          incr failed;
          errors := m :: !errors);
      times.(k) <- norm :: times.(k);
      raw.(k) <- host :: raw.(k);
      (* Every job starts from a collected heap, as it would in a fresh
         process: no GC debt is carried into the next job's time. *)
      Gc.full_major ();
      before := after;
      incr i
    done;
    incr r
  done;
  {
    times;
    raw;
    requests;
    attempted = !attempted;
    failed = !failed;
    errors = List.rev !errors;
  }

(* The run's figures over the fixed job mix.  Each kind is represented
   by the median of its runs, so partial rounds do not tilt the mix:
   throughput is the mix's jobs (or simulated requests) over the summed
   per-kind medians, and the latencies are the median and the p95
   (nearest rank) of the per-kind medians, every kind weighted once.
   These rank the whole catalogue, not a sample of it, so the
   samples-beyond rule of {!Stats.percentile} does not apply. *)
let figures ?(raw = false) ~per_request o =
  let medians =
    Array.map
      (fun l -> Stats.median (Array.of_list l))
      (if raw then o.raw else o.times)
  in
  let total = Array.fold_left ( +. ) 0.0 medians in
  let work =
    if per_request then float (Array.fold_left ( + ) 0 o.requests)
    else float (Array.length medians)
  in
  let p95 =
    match Stats.percentile ~min_beyond:0 95 medians with
    | Ok v -> v
    | Error m -> failwith m
  in
  (work /. total, Stats.median medians, p95)
