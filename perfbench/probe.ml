(* The frozen probe: a fixed reference workload timed right next to the
   measured work, so that host time can be restated at one machine speed.

   The CPUs this benchmark was tuned on (a 2-vCPU Intel Xeon VM at
   2.1 GHz) run at two speeds about 1.5-1.9x apart and switch between
   them every few seconds.  Dividing a timed interval by the probe's own
   duration around it removes most of that.  The probe never calls
   program code: a probe sharing code with the program would speed up
   with it and cancel real gains.  Do not change [work], [iters],
   [calls] or [ref_s]; every normalized figure is stated in their units. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let table =
  lazy
    (let h = Hashtbl.create 4096 in
     for i = 0 to 4095 do
       Hashtbl.replace h i (i * 31)
     done;
     h)

(* Hashtable lookups, short-lived allocation and a dependent chain of
   float operations: the mix the simulator's own hot loops are made of. *)
let work n =
  let h = Lazy.force table in
  let acc = ref 0 and f = ref 1.0 and l = ref [] in
  for i = 0 to n - 1 do
    acc := !acc + Hashtbl.find h ((i * 7919) land 4095);
    if i land 7 = 0 then l := (i, !f) :: (if i land 511 = 0 then [] else !l);
    f := sqrt ((!f *. 1.0000001) +. float_of_int i)
  done;
  ignore (Sys.opaque_identity (!acc, !f, !l))

let iters = 12_000
let calls = 5

(* Seconds one sample takes at the reference speed: the fast level of
   the machine described above. *)
let ref_s = 0.00038

(* One sample: the median of [calls] timed runs of [work iters], which
   shrugs off a single preempted call. *)
let sample () =
  let ts =
    Array.init calls (fun _ ->
        let t0 = now () in
        work iters;
        now () -. t0)
  in
  Array.sort compare ts;
  ts.(calls / 2)

(* [raw] host seconds measured between probe samples [before] and
   [after], restated at the reference speed. *)
let normalize ~before ~after raw = raw *. ref_s /. ((before +. after) /. 2.0)

(* --- timed intervals ----------------------------------------------------

   A job of several seconds can straddle a speed switch, so probe samples
   before and after it are not enough.  While an interval is open a CPU
   timer (SIGVTALRM every [tick] seconds of user time; it never fires
   inside a system call) takes a sample mid-job.  Only single-threaded
   runs use it: with a second thread blocked in a system call, the
   signal could land there.  The interval's
   normalized time integrates the work between consecutive samples at
   the mean of the two samples bounding it; time spent sampling is left
   out. *)

let tick = 0.1

type interval = {
  mutable last_t : float;  (** End of the last sample. *)
  mutable last_s : float;  (** Its duration. *)
  mutable norm : float;  (** Normalized seconds so far. *)
  mutable raw : float;  (** Host seconds so far, samples excluded. *)
  mutable samples : float list;
}

let current : interval option ref = ref None

let close_segment iv t s =
  let work = t -. iv.last_t in
  iv.raw <- iv.raw +. work;
  iv.norm <- iv.norm +. (work *. ref_s /. ((iv.last_s +. s) /. 2.0))

(* Words the mid-job samples allocated, so that allocation counts taken
   around program calls can leave them out. *)
let tick_words = [| 0.0 |]

let on_tick _ =
  match !current with
  | None -> ()
  | Some iv ->
      let w0 = Gc.minor_words () in
      let t = now () in
      let s = sample () in
      close_segment iv t s;
      iv.samples <- s :: iv.samples;
      iv.last_t <- now ();
      iv.last_s <- s;
      tick_words.(0) <- tick_words.(0) +. (Gc.minor_words () -. w0)

let timer : [ `Off | `On | `Disabled ] ref = ref `Off

let install_timer () =
  if !timer = `Off then begin
    timer := `On;
    Sys.set_signal Sys.sigvtalrm (Sys.Signal_handle on_tick);
    ignore
      (Unix.setitimer Unix.ITIMER_VIRTUAL
         { Unix.it_interval = tick; it_value = tick })
  end

(* Stops mid-job sampling for the rest of the process.  Taking a signal
   allocates a few words, so runs that count allocations exactly need
   the timer off. *)
let disable_ticks () =
  if !timer = `On then
    ignore
      (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = 0.0; it_value = 0.0 });
  timer := `Disabled

(* [timed ~before f] runs [f] as one interval opened right after the
   probe sample [before] and closed by a fresh sample, which it returns:
   [(result, normalized seconds, host seconds, closing sample, samples
   taken inside)]. *)
let timed ~before f =
  install_timer ();
  let iv = { last_t = now (); last_s = before; norm = 0.0; raw = 0.0; samples = [] } in
  current := Some iv;
  let finish () =
    let t = now () in
    current := None;
    (iv, t)
  in
  match f () with
  | exception e ->
      ignore (finish ());
      raise e
  | x ->
      let iv, t = finish () in
      let after = sample () in
      close_segment iv t after;
      (x, iv.norm, iv.raw, after, iv.samples)

(* A probe sample longer than this was taken at the slow level. *)
let slow_threshold = 1.25 *. ref_s

(* --- diagnostics ------------------------------------------------------ *)

(* Steal ticks from /proc/stat (the 8th field of the aggregate cpu line). *)
let steal_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match
        String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
      with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          int_of_string_opt steal
      | _ -> None)
  | None -> None
  | exception Sys_error _ -> None

(* Every probe sample of a run, with the steal counter at its start. *)
type log = { mutable samples : float list; steal0 : int option }

let log () = { samples = []; steal0 = steal_ticks () }

let sample_into log =
  let s = sample () in
  log.samples <- s :: log.samples;
  s

type summary = {
  count : int;
  median_s : float;
  iqr_s : float;
  slow_share : float;  (** Share of samples taken at the slow level. *)
  steal : int option;  (** Steal ticks over the run. *)
}

let summarize log =
  let a = Array.of_list log.samples in
  let count = Array.length a in
  let median_s = if count = 0 then nan else Stats.median a in
  let iqr_s =
    if count < 2 then nan
    else
      let q = Stats.quartiles a in
      q.(2) -. q.(0)
  in
  let slow =
    Array.fold_left (fun n s -> if s > slow_threshold then n + 1 else n) 0 a
  in
  {
    count;
    median_s;
    iqr_s;
    slow_share = (if count = 0 then nan else float slow /. float count);
    steal =
      (match (log.steal0, steal_ticks ()) with
      | Some a, Some b -> Some (b - a)
      | _ -> None);
  }

let summary_json s =
  Printf.sprintf
    "{\"samples\": %d, \"median_s\": %.6g, \"iqr_s\": %.6g, \
     \"slow_share\": %.3f, \"steal_ticks\": %s}"
    s.count s.median_s s.iqr_s s.slow_share
    (match s.steal with Some n -> string_of_int n | None -> "null")

(* --- noise mode: profile the machine ---------------------------------- *)

(* Samples back to back for [seconds], smooths each by the median of its
   five neighbours (so one preempted sample does not split a stretch),
   and reports the time split between the two speeds and how long each
   uninterrupted stretch at one speed lasts. *)
let profile seconds =
  let t_end = now () +. seconds in
  let rec go acc =
    if now () >= t_end then Array.of_list (List.rev acc)
    else
      let t = now () in
      let s = sample () in
      go ((t, s) :: acc)
  in
  let xs = go [] in
  let n = Array.length xs in
  let smooth i =
    let lo = max 0 (i - 2) and hi = min (n - 1) (i + 2) in
    Stats.median (Array.init (hi - lo + 1) (fun k -> snd xs.(lo + k)))
  in
  let slow = Array.init n (fun i -> smooth i > slow_threshold) in
  let stretches = ref [] in
  let start = ref 0 in
  for i = 1 to n do
    if i = n || slow.(i) <> slow.(!start) then begin
      let t0 = fst xs.(!start) in
      let t1 = if i = n then now () else fst xs.(i) in
      stretches := (slow.(!start), t1 -. t0) :: !stretches;
      start := i
    end
  done;
  let level is_slow =
    let ds =
      List.filter_map
        (fun (s, d) -> if s = is_slow then Some d else None)
        !stretches
      |> Array.of_list
    in
    let total = Array.fold_left ( +. ) 0.0 ds in
    (ds, total)
  in
  let fast_ds, fast_total = level false and slow_ds, slow_total = level true in
  let describe name ds total =
    Printf.printf "  %-5s level: %5.1f%% of time, %3d stretches%s\n" name
      (100.0 *. total /. (fast_total +. slow_total))
      (Array.length ds)
      (if Array.length ds = 0 then ""
       else
         Printf.sprintf ", stretch median %.2f s, max %.2f s" (Stats.median ds)
           (Array.fold_left max 0.0 ds))
  in
  let all = Array.map snd xs in
  Printf.printf
    "noise profile: %d probe samples over %.1f s; sample median %.3f ms, \
     reference %.3f ms, slow threshold %.3f ms\n"
    n seconds (Stats.median all *. 1e3) (ref_s *. 1e3)
    (slow_threshold *. 1e3);
  describe "fast" fast_ds fast_total;
  describe "slow" slow_ds slow_total;
  let fast_med =
    Stats.median
      (Array.of_list
         (List.filteri (fun i _ -> not slow.(i)) (Array.to_list all)))
  and slow_med =
    Stats.median
      (Array.of_list (List.filteri (fun i _ -> slow.(i)) (Array.to_list all)))
  in
  if Array.length fast_ds > 0 && Array.length slow_ds > 0 then
    Printf.printf "  speed ratio slow/fast: %.2f\n" (slow_med /. fast_med);
  Printf.printf "  preempted samples (> 2x reference): %d\n"
    (Array.fold_left (fun k s -> if s > 2.0 *. ref_s then k + 1 else k) 0 all)
