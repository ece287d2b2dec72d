module Rng = Dpm_util.Rng
module Striping = Dpm_layout.Striping

type spec = {
  seed : int;
  read_error_rate : float;
  bad_unit_rate : float;
  bad_region_len : int;
  spin_up_failure_rate : float;
  max_retries : int;
  backoff : float;
  remap_penalty : float;
  disk_failures : (int * float) list;
}

let none =
  {
    seed = 0;
    read_error_rate = 0.0;
    bad_unit_rate = 0.0;
    bad_region_len = 8;
    spin_up_failure_rate = 0.0;
    max_retries = 3;
    backoff = 0.05;
    remap_penalty = 0.005;
    disk_failures = [];
  }

let make ?(seed = none.seed) ?(read_error_rate = none.read_error_rate)
    ?(bad_unit_rate = none.bad_unit_rate)
    ?(bad_region_len = none.bad_region_len)
    ?(spin_up_failure_rate = none.spin_up_failure_rate)
    ?(max_retries = none.max_retries) ?(backoff = none.backoff)
    ?(remap_penalty = none.remap_penalty) ?(disk_failures = none.disk_failures)
    () =
  {
    seed;
    read_error_rate;
    bad_unit_rate;
    bad_region_len;
    spin_up_failure_rate;
    max_retries;
    backoff;
    remap_penalty;
    disk_failures;
  }

let is_zero s =
  s.read_error_rate <= 0.0
  && s.bad_unit_rate <= 0.0
  && s.spin_up_failure_rate <= 0.0
  && s.disk_failures = []

let validate s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let bad_rate v = Float.is_nan v || v < 0.0 || v > 1.0 in
  if bad_rate s.read_error_rate then
    err "read error rate must be in [0, 1] (got %g)" s.read_error_rate
  else if bad_rate s.bad_unit_rate then
    err "bad-unit rate must be in [0, 1] (got %g)" s.bad_unit_rate
  else if bad_rate s.spin_up_failure_rate then
    err "spin-up failure rate must be in [0, 1] (got %g)" s.spin_up_failure_rate
  else if s.bad_region_len < 1 then
    err "bad-region length must be at least 1 (got %d)" s.bad_region_len
  else if s.max_retries < 0 then
    err "retry bound must be non-negative (got %d)" s.max_retries
  else if Float.is_nan s.backoff || s.backoff < 0.0 then
    err "backoff must be non-negative (got %g)" s.backoff
  else if Float.is_nan s.remap_penalty || s.remap_penalty < 0.0 then
    err "remap penalty must be non-negative (got %g)" s.remap_penalty
  else
    match
      List.find_opt
        (fun (d, t) -> d < 0 || Float.is_nan t || t < 0.0)
        s.disk_failures
    with
    | Some (d, t) -> err "invalid disk failure %d@%g" d t
    | None -> Ok s

(* --- string form --- *)

let to_string s =
  let b = Buffer.create 96 in
  Printf.bprintf b "seed=%d,read=%.17g,bad=%.17g,badlen=%d" s.seed
    s.read_error_rate s.bad_unit_rate s.bad_region_len;
  Printf.bprintf b ",spinfail=%.17g,retries=%d,backoff=%.17g,remap=%.17g"
    s.spin_up_failure_rate s.max_retries s.backoff s.remap_penalty;
  if s.disk_failures <> [] then
    Printf.bprintf b ",fail=%s"
      (String.concat ";"
         (List.map
            (fun (d, t) -> Printf.sprintf "%d@%.17g" d t)
            s.disk_failures));
  Buffer.contents b

let of_string str =
  let ( let* ) = Stdlib.Result.bind in
  let module Kv = Dpm_util.Kv in
  let failure entry =
    match String.index_opt entry '@' with
    | None -> Error (Printf.sprintf "fail: expected DISK@TIME, got %S" entry)
    | Some i ->
        let* d = Kv.int "fail" (String.sub entry 0 i) in
        let* t =
          Kv.float "fail"
            (String.sub entry (i + 1) (String.length entry - i - 1))
        in
        Ok (d, t)
  in
  let set spec (key, v) =
    let int f = Stdlib.Result.map f (Kv.int key v)
    and float f = Stdlib.Result.map f (Kv.float key v) in
    match String.lowercase_ascii key with
    | "seed" -> int (fun n -> { spec with seed = n })
    | "read" -> float (fun x -> { spec with read_error_rate = x })
    | "bad" -> float (fun x -> { spec with bad_unit_rate = x })
    | "badlen" -> int (fun n -> { spec with bad_region_len = n })
    | "spinfail" -> float (fun x -> { spec with spin_up_failure_rate = x })
    | "retries" -> int (fun n -> { spec with max_retries = n })
    | "backoff" -> float (fun x -> { spec with backoff = x })
    | "remap" -> float (fun x -> { spec with remap_penalty = x })
    | "fail" ->
        let* fs = Kv.all failure (Kv.clauses ~sep:';' v) in
        Ok { spec with disk_failures = spec.disk_failures @ fs }
    | _ ->
        Error
          (Printf.sprintf
             "unknown key %S (expected seed, read, bad, badlen, spinfail, \
              retries, backoff, remap or fail)"
             key)
  in
  let* pairs = Kv.pairs ~sep:',' str in
  let* spec =
    List.fold_left
      (fun acc kv ->
        let* spec = acc in
        set spec kv)
      (Ok none) pairs
  in
  validate spec

let backoff_delay spec ~attempt = Float.ldexp spec.backoff attempt

(* --- plan --- *)

type plan = {
  pspec : spec;
  ndisks : int;
  bad : (int * int) array;
  fail_at : float array;
}

(* Sort and coalesce overlapping/adjacent inclusive intervals. *)
let merge_runs runs =
  match List.sort compare runs with
  | [] -> [||]
  | first :: rest ->
      let merged, last =
        List.fold_left
          (fun (acc, (lo, hi)) (lo', hi') ->
            if lo' <= hi + 1 then (acc, (lo, max hi hi'))
            else ((lo, hi) :: acc, (lo', hi')))
          ([], first) rest
      in
      Array.of_list (List.rev (last :: merged))

let plan spec ~ndisks ~nblocks =
  if ndisks <= 0 then invalid_arg "Fault.plan: non-positive disk count";
  (match validate spec with
  | Ok _ -> ()
  | Error m -> invalid_arg ("Fault.plan: " ^ m));
  let fail_at = Array.make ndisks infinity in
  List.iter
    (fun (d, t) -> if d < ndisks then fail_at.(d) <- Float.min fail_at.(d) t)
    spec.disk_failures;
  let bad =
    if spec.bad_unit_rate <= 0.0 || nblocks <= 0 then [||]
    else begin
      let rng = Rng.split (Rng.create spec.seed) "fault.bad-regions" in
      let target =
        max 1
          (int_of_float
             (Float.round (spec.bad_unit_rate *. float_of_int nblocks)))
      in
      let len = min spec.bad_region_len nblocks in
      let nregions = max 1 ((target + len - 1) / len) in
      let runs = ref [] in
      for _ = 1 to nregions do
        let start = Rng.int rng nblocks in
        let l = 1 + Rng.int rng (max 1 len) in
        runs := (start, min (nblocks - 1) (start + l - 1)) :: !runs
      done;
      merge_runs !runs
    end
  in
  { pspec = spec; ndisks; bad; fail_at }

let spec_of plan = plan.pspec

let bad_block plan ~block =
  let n = Array.length plan.bad in
  if n = 0 then false
  else begin
    let lo = ref 0 and hi = ref (n - 1) and found = ref false in
    while (not !found) && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let a, b = plan.bad.(mid) in
      if block < a then hi := mid - 1
      else if block > b then lo := mid + 1
      else found := true
    done;
    !found
  end

let bad_unit_count plan =
  Array.fold_left (fun acc (a, b) -> acc + b - a + 1) 0 plan.bad

let bad_regions plan = Array.to_list plan.bad

let bad_disk_spread plan ~striping =
  let striping =
    (* The plan may cover fewer disks than the striping assumes. *)
    if
      striping.Striping.stripe_factor > plan.ndisks
      || striping.Striping.start_disk >= plan.ndisks
    then
      Striping.make ~start_disk:0 ~stripe_factor:plan.ndisks
        ~stripe_size:striping.Striping.stripe_size
    else striping
  in
  let counts = Array.make plan.ndisks 0 in
  Array.iter
    (fun (lo, hi) ->
      List.iter
        (fun (d, n) -> counts.(d) <- counts.(d) + n)
        (Striping.region_disk_spread striping ~ndisks:plan.ndisks ~lo ~hi))
    plan.bad;
  counts

let fail_time plan ~disk = plan.fail_at.(disk)

(* --- per-replay state --- *)

type state = {
  plan : plan;
  read_rng : Rng.t array;
  spin_rng : Rng.t array;
  mutable pending_failures : (float * int) list;  (* sorted by time *)
  mutable read_retries : int;
  mutable retry_delay : float;
  mutable remaps : int;
  mutable spin_up_recoveries : int;
  mutable redirects : int;
}

let start plan =
  (* [Rng.split] is by value: the per-disk streams depend only on
     (seed, tag), so the draw order across disks cannot perturb them. *)
  let root = Rng.create plan.pspec.seed in
  let pending = ref [] in
  Array.iteri
    (fun d t -> if t < infinity then pending := (t, d) :: !pending)
    plan.fail_at;
  {
    plan;
    read_rng =
      Array.init plan.ndisks (fun d ->
          Rng.split root (Printf.sprintf "fault.read.%d" d));
    spin_rng =
      Array.init plan.ndisks (fun d ->
          Rng.split root (Printf.sprintf "fault.spinup.%d" d));
    pending_failures = List.sort compare !pending;
    read_retries = 0;
    retry_delay = 0.0;
    remaps = 0;
    spin_up_recoveries = 0;
    redirects = 0;
  }

let plan_of state = state.plan

(* Validate-and-expand in one step: the glue every replay entry point
   needs before touching the trace.  [None] takes the exact fault-free
   code path (no extra draws, no float perturbation); [nblocks] is lazy
   so streaming replays never pay the whole-trace scan unless a fault
   spec is actually active. *)
let init spec ~ndisks ~nblocks =
  if is_zero spec then None
  else begin
    (match validate spec with
    | Ok _ -> ()
    | Error m -> invalid_arg ("invalid fault spec: " ^ m));
    Some (start (plan spec ~ndisks ~nblocks:(Lazy.force nblocks)))
  end

let sweep state ~now ~kill =
  match state.pending_failures with
  | (t, _) :: _ when t <= now ->
      let rec go = function
        | (t, d) :: rest when t <= now ->
            kill d t;
            go rest
        | rest -> state.pending_failures <- rest
      in
      go state.pending_failures
  | _ -> ()

let is_failed state ~disk ~now = state.plan.fail_at.(disk) <= now

let serving_disk state ~disk ~now =
  if state.plan.fail_at.(disk) > now then disk
  else begin
    let n = state.plan.ndisks in
    let rec find k =
      if k >= n then disk
      else
        let d = (disk + k) mod n in
        if state.plan.fail_at.(d) > now then d else find (k + 1)
    in
    let d = find 1 in
    if d <> disk then state.redirects <- state.redirects + 1;
    d
  end

(* Bounded failed spin-up attempts while the disk sits in standby; each
   aborted attempt burns part of the spin-up energy, then backs off.
   Returns the time at which a (finally successful) spin-up may start. *)
let spin_up_attempts state st ~now =
  let spec = state.plan.pspec in
  if spec.spin_up_failure_rate <= 0.0 then now
  else begin
    Disk_state.advance st now;
    match Disk_state.phase st with
    | Disk_state.Standby ->
        let disk = Disk_state.id st in
        let rec attempt k now =
          if k >= spec.max_retries then now
          else if Rng.float state.spin_rng.(disk) 1.0 < spec.spin_up_failure_rate
          then begin
            let fraction = Rng.uniform state.spin_rng.(disk) 0.2 0.8 in
            state.spin_up_recoveries <- state.spin_up_recoveries + 1;
            let settled = Disk_state.abort_spin_up st ~now ~fraction in
            attempt (k + 1) (settled +. backoff_delay spec ~attempt:k)
          end
          else now
        in
        attempt 0 now
    | Disk_state.Ready _ | Disk_state.Changing _ | Disk_state.Spinning_down _
    | Disk_state.Spinning_up _ ->
        now
  end

let serve state st ~now ~bytes ~block =
  let spec = state.plan.pspec in
  let now = spin_up_attempts state st ~now in
  let now =
    if Array.length state.plan.bad > 0 && bad_block state.plan ~block then begin
      state.remaps <- state.remaps + 1;
      Disk_state.record st ~at:now (Timeline.Remap block);
      Disk_state.occupy st ~now ~seconds:spec.remap_penalty
    end
    else now
  in
  let completion = Disk_state.serve st ~now ~bytes in
  if spec.read_error_rate <= 0.0 then completion
  else begin
    let disk = Disk_state.id st in
    let rec retry k completion =
      if k >= spec.max_retries then completion
      else if Rng.float state.read_rng.(disk) 1.0 < spec.read_error_rate then begin
        state.read_retries <- state.read_retries + 1;
        let resume = completion +. backoff_delay spec ~attempt:k in
        Disk_state.record st ~at:resume (Timeline.Retry (k + 1));
        let completion' = Disk_state.serve st ~now:resume ~bytes in
        state.retry_delay <- state.retry_delay +. (completion' -. completion);
        retry (k + 1) completion'
      end
      else completion
    in
    retry 0 completion
  end

let spin_up state st ~now =
  let now = spin_up_attempts state st ~now in
  Disk_state.spin_up st ~now

let retries_so_far state = state.read_retries

let stats state ~exec_time =
  {
    Result.read_retries = state.read_retries;
    retry_delay = state.retry_delay;
    remaps = state.remaps;
    spin_up_recoveries = state.spin_up_recoveries;
    redirects = state.redirects;
    failed_disks =
      Array.fold_left
        (fun n t -> if t <= exec_time then n + 1 else n)
        0 state.plan.fail_at;
  }
