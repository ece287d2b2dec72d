(* Per-disk bounded request queues with pluggable service order.

   This module owns the reference replay bodies, the differential
   reference that {!Fastpath}'s two loops re-implement and
   [core:`Reference] runs.  Under FCFS (the default) requests are
   served eagerly in trace order — the exact pre-fleet engine loop,
   kept byte-identical for homogeneous configurations — while the other
   disciplines defer each request into its disk's bounded queue and
   dispatch by policy: SSTF (shortest seek first), SCAN (elevator),
   C-LOOK (circular), and a bad-sector-aware SSTF that prices remapped
   blocks at their post-remap position in the spare pool past the data
   blocks.

   The deferred machinery is exact, not approximate: a dispatch fires
   at max(disk free, earliest queued arrival), requests that have not
   arrived by then are not candidates, and a full queue stalls the
   traced application until the next dispatch frees a slot (the same
   bounded-queue role the FCFS completion ring plays).  Every dispatch
   decision is recorded as a {!Timeline.Dispatch} mark so the timeline
   checker can replay the discipline's pick independently. *)

module Stream = Dpm_trace.Trace.Stream
module Chunk = Stream.Chunk
module Rpm = Dpm_disk.Rpm
module Service = Dpm_disk.Service
module Specs = Dpm_disk.Specs

type t = Config.sched = Fcfs | Sstf | Scan | Clook | Sstf_remap

let all = List.map snd Config.sched_names
let name = Config.sched_name
let of_name_opt = Config.sched_of_name_opt

(* One queued request.  [pos] is the scheduling position: the block
   itself, except under [Sstf_remap] where a bad block is priced at its
   post-remap position.  [seq] breaks every tie deterministically (and
   is the FCFS order). *)
type req = { arrival : float; pos : int; block : int; bytes : int; seq : int }

let no_req = { arrival = 0.0; pos = 0; block = 0; bytes = 0; seq = -1 }

(* --- Replay scaffold ---

   Shared by every replay body: the eager FCFS and deferred bodies
   below, the structure-of-arrays core in {!Fastpath}, and the
   multiprogrammed merge in {!Engine.run_many_stream}. *)

type state = {
  config : Config.t;
  mode : [ `Open | `Closed ];
  fault : Fault.state option;
  timeline : Timeline.sink option;
  obs : Observe.t option;
  policy : Policy.t;
  models : Specs.t array;
  tops : int array;
  disks : Disk_state.t array;
  backlog : float array;
  depth : int;
  recent : float array array;
  recent_pos : int array;
  makespan : float array;
  mutable gap_choices : (int * float * int) list;
}

let create ~config ~mode ~fault ~timeline ~obs policy ~ndisks =
  (* Per-disk models: the round-robin fleet, or the homogeneous specs.
     Every per-request float comes from the serving disk's own model,
     so an all-[specs] fleet computes the identical bits the
     homogeneous engine always has. *)
  let models = Array.init ndisks (fun d -> Config.model config ~disk:d) in
  let depth = max 1 config.Config.queue_depth in
  {
    config;
    mode;
    fault;
    timeline;
    obs;
    policy;
    models;
    tops = Array.map Rpm.max_level models;
    disks =
      Array.init ndisks (fun id ->
          Disk_state.create ?recorder:timeline models.(id) ~id);
    backlog = Array.make ndisks 0.0;
    depth;
    recent = Array.init ndisks (fun _ -> Array.make depth 0.0);
    recent_pos = Array.make ndisks 0;
    makespan = [| 0.0 |];
    gap_choices = [];
  }

let sweep_failures s now =
  match s.fault with
  | None -> ()
  | Some fs ->
      Fault.sweep fs ~now ~kill:(fun d at -> Disk_state.fail s.disks.(d) ~at)

let apply_directive s tag d level clock =
  (* Boxed once, here, and shared by every call below: a plain float
     let would be unboxed and re-boxed at each use. *)
  let clock =
    Sys.opaque_identity (clock +. s.config.Config.pm_call_overhead)
  in
  let st = s.disks.(d) in
  if tag = Chunk.tag_spin_down then begin
    Disk_state.record st ~at:clock Timeline.Directive_spin_down;
    Disk_state.spin_down st ~now:clock
  end
  else if tag = Chunk.tag_spin_up then begin
    Disk_state.record st ~at:clock Timeline.Directive_spin_up;
    match s.fault with
    | None -> Disk_state.spin_up st ~now:clock
    | Some fs -> Fault.spin_up fs st ~now:clock
  end
  else begin
    (* A directive planned against a taller ladder (the compiler plans
       with the primary specs) clamps to this disk's top. *)
    let top = s.tops.(d) in
    let level = if level > top then top else level in
    if level < top then s.gap_choices <- (d, clock, level) :: s.gap_choices;
    Disk_state.record st ~at:clock (Timeline.Directive_set_rpm level);
    Disk_state.set_level st ~now:clock level
  end;
  clock

let finish s ~program ~clock =
  let makespan = s.makespan.(0) in
  let exec_time = if clock >= makespan then clock else makespan in
  sweep_failures s exec_time;
  Array.iter
    (fun st ->
      s.policy.Policy.catch_up st ~now:exec_time;
      Disk_state.finalize st ~at:exec_time)
    s.disks;
  Option.iter
    (fun sink ->
      Timeline.close sink ~scheme:s.policy.Policy.name ~program
        ~config:s.config exec_time)
    s.timeline;
  let disk_stats =
    Array.map
      (fun st ->
        {
          Result.energy = Disk_state.energy st;
          busy = st.Disk_state.busy;
          nbusy = st.Disk_state.nbusy;
          requests = Disk_state.requests_served st;
          transitions = Disk_state.transition_count st;
          spin_downs = Disk_state.spin_down_count st;
          level_residency = Disk_state.level_residency st;
          standby_time = Disk_state.standby_residency st;
          transition_time = Disk_state.transition_residency st;
          killed_at = Disk_state.killed_at st;
        })
      s.disks
  in
  {
    Result.scheme = s.policy.Policy.name;
    program;
    exec_time;
    energy =
      Array.fold_left
        (fun acc (d : Result.disk_stats) -> acc +. d.Result.energy)
        0.0 disk_stats;
    disks = disk_stats;
    gap_choices = List.rev s.gap_choices;
    faults =
      (match s.fault with
      | None -> Result.no_faults
      | Some fs -> Fault.stats fs ~exec_time);
  }

(* The eager reference body: a request issues the moment it arrives, in
   trace order.  It reads row [i] of chunk [c]: identical whatever
   chunking the stream delivers, so replays are byte-identical to the
   materialized path at any batch size. *)
let fcfs_step s clock c i =
  clock := !clock +. Chunk.think c i;
  sweep_failures s !clock;
  let tag = Chunk.tag c i in
  if not (Chunk.is_io_tag tag) then begin
    if s.policy.Policy.accepts_directives then
      clock := apply_directive s tag (Chunk.disk c i) (Chunk.block c i) !clock
  end
  else begin
    let disk = Chunk.disk c i and bytes = Chunk.bytes c i in
    (* A failed disk sheds its load onto the next survivor. *)
    let d =
      match s.fault with
      | None -> disk
      | Some fs -> Fault.serving_disk fs ~disk ~now:!clock
    in
    if d <> disk then
      Disk_state.record s.disks.(d) ~at:!clock (Timeline.Redirect disk);
    let st = s.disks.(d) in
    (* Bounded queue: wait until the oldest of the last [depth]
       requests on this disk has completed. *)
    let ring = s.recent.(d) and pos = s.recent_pos.(d) in
    if ring.(pos) > !clock then clock := ring.(pos);
    let arrival = !clock in
    Observe.observe_arrival s.obs ~ring ~queued:0 ~arrival;
    let issue = max arrival s.backlog.(d) in
    s.policy.Policy.catch_up st ~now:issue;
    let before = Observe.retries_before s.obs s.fault in
    let completion =
      match s.fault with
      | None -> Disk_state.serve st ~now:issue ~bytes
      | Some fs -> Fault.serve fs st ~now:issue ~bytes ~block:(Chunk.block c i)
    in
    s.backlog.(d) <- completion;
    ring.(pos) <- completion;
    s.recent_pos.(d) <- (pos + 1) mod s.depth;
    if completion > s.makespan.(0) then s.makespan.(0) <- completion;
    let response = completion -. arrival in
    Observe.observe_service s.obs ~fault:s.fault ~retries_before:before
      ~response;
    let nominal = Service.request_time s.models.(d) ~level:s.tops.(d) ~bytes in
    s.policy.Policy.on_complete st ~now:completion ~response ~nominal;
    clock :=
      match s.mode with
      | `Open ->
          (* The traced application proceeds on its own clock: the
             base-run service time elapses before the next think. *)
          arrival +. nominal
      | `Closed -> completion
  end

let replay ~config ~mode ~fault ~timeline ~obs (policy : Policy.t)
    (stream : Stream.t) =
  let sched = config.Config.sched in
  let ndisks = Stream.ndisks stream in
  let s = create ~config ~mode ~fault ~timeline ~obs policy ~ndisks in
  let program = Stream.program stream in
  match sched with
  | Fcfs ->
      let clock = ref 0.0 in
      Stream.iter_rows (fcfs_step s clock) stream;
      finish s ~program ~clock:(!clock +. Stream.tail_think stream)
  | Sstf | Scan | Clook | Sstf_remap ->
      (* Deferred dispatch: requests park in their disk's bounded queue
         and issue by discipline at max(disk free, earliest arrival). *)
      let clock = ref 0.0 in
      let pend = Array.init ndisks (fun _ -> Array.make s.depth no_req) in
      let pend_n = Array.make ndisks 0 in
      let head = Array.make ndisks 0 in
      let dirup = Array.make ndisks true in
      (* Dispatches issued per disk — the completion-ring cursor. *)
      let issued = Array.make ndisks 0 in
      let seq = ref 0 in
      let price =
        match (sched, fault) with
        | Sstf_remap, Some fs
          when Fault.bad_regions (Fault.plan_of fs) <> [] ->
            (* Remapped sectors live in the spare pool past the data
               blocks, so a seek-aware scheduler prices them at the far
               end of the address space.  [nblocks] was already forced
               when the bad regions were drawn. *)
            let plan = Fault.plan_of fs in
            let spare = Stream.nblocks stream in
            fun block -> if Fault.bad_block plan ~block then spare else block
        | _ -> fun block -> block
      in
      (* Earliest instant disk [d] can issue its next request. *)
      let next_t d =
        let n = pend_n.(d) in
        if n = 0 then infinity
        else begin
          let q = pend.(d) in
          let m = ref q.(0).arrival in
          for i = 1 to n - 1 do
            if q.(i).arrival < !m then m := q.(i).arrival
          done;
          Float.max s.backlog.(d) !m
        end
      in
      (* Pick the queue index to serve at time [at] (at least one queued
         request has arrived by construction of [next_t]).  Ties on
         position break by sequence number, deterministically. *)
      let pick d ~at =
        let q = pend.(d) and n = pend_n.(d) in
        let h = head.(d) in
        let choose keep better =
          let best = ref (-1) in
          for i = 0 to n - 1 do
            if q.(i).arrival <= at && keep q.(i).pos then
              match !best with
              | -1 -> best := i
              | b -> if better q.(i) q.(b) then best := i
          done;
          !best
        in
        let by_seq a b = a.seq < b.seq in
        let nearer a b =
          let da = abs (a.pos - h) and db = abs (b.pos - h) in
          da < db || (da = db && a.seq < b.seq)
        in
        let lowest a b = a.pos < b.pos || (a.pos = b.pos && a.seq < b.seq) in
        let highest a b = a.pos > b.pos || (a.pos = b.pos && a.seq < b.seq) in
        match sched with
        | Fcfs -> choose (fun _ -> true) by_seq
        | Sstf | Sstf_remap -> choose (fun _ -> true) nearer
        | Scan ->
            if dirup.(d) then begin
              let i = choose (fun p -> p >= h) lowest in
              if i >= 0 then i
              else begin
                dirup.(d) <- false;
                choose (fun p -> p <= h) highest
              end
            end
            else begin
              let i = choose (fun p -> p <= h) highest in
              if i >= 0 then i
              else begin
                dirup.(d) <- true;
                choose (fun p -> p >= h) lowest
              end
            end
        | Clook ->
            let i = choose (fun p -> p >= h) lowest in
            if i >= 0 then i else choose (fun _ -> true) lowest
      in
      let dispatch d =
        let t_disp = next_t d in
        sweep_failures s t_disp;
        let i = pick d ~at:t_disp in
        let q = pend.(d) in
        let r = q.(i) in
        pend_n.(d) <- pend_n.(d) - 1;
        q.(i) <- q.(pend_n.(d));
        q.(pend_n.(d)) <- no_req;
        let st = s.disks.(d) in
        let seek = r.pos - head.(d) in
        head.(d) <- r.pos;
        Disk_state.record st ~at:t_disp
          (Timeline.Dispatch { disc = sched; pos = r.pos; arrival = r.arrival });
        policy.Policy.catch_up st ~now:t_disp;
        let before = Observe.retries_before obs fault in
        let completion =
          match fault with
          | None -> Disk_state.serve st ~now:t_disp ~bytes:r.bytes
          | Some fs ->
              Fault.serve fs st ~now:t_disp ~bytes:r.bytes ~block:r.block
        in
        s.backlog.(d) <- completion;
        s.recent.(d).(issued.(d) mod s.depth) <- completion;
        issued.(d) <- issued.(d) + 1;
        if completion > s.makespan.(0) then s.makespan.(0) <- completion;
        let response = completion -. r.arrival in
        Observe.observe_service obs ~fault ~retries_before:before ~response;
        Observe.observe_dispatch obs ~wait:(t_disp -. r.arrival)
          ~seek_blocks:seek;
        let nominal =
          Service.request_time s.models.(d) ~level:s.tops.(d) ~bytes:r.bytes
        in
        policy.Policy.on_complete st ~now:completion ~response ~nominal
      in
      (* Issue, in global time order, every dispatch scheduled strictly
         before [limit] — keeps each disk's operations time-monotone
         against directives applied at the application clock. *)
      let rec drain_until limit =
        let bd = ref (-1) and bt = ref infinity in
        for d = 0 to ndisks - 1 do
          let t = next_t d in
          if t < !bt then begin
            bd := d;
            bt := t
          end
        done;
        if !bd >= 0 && !bt < limit then begin
          dispatch !bd;
          drain_until limit
        end
      in
      let enqueue d ~arrival ~block ~bytes =
        pend.(d).(pend_n.(d)) <-
          { arrival; pos = price block; block; bytes; seq = !seq };
        incr seq;
        pend_n.(d) <- pend_n.(d) + 1
      in
      Stream.iter_rows
        (fun c i ->
          clock := !clock +. Chunk.think c i;
          drain_until !clock;
          sweep_failures s !clock;
          let tag = Chunk.tag c i in
          if not (Chunk.is_io_tag tag) then begin
            if policy.Policy.accepts_directives then
              clock :=
                apply_directive s tag (Chunk.disk c i) (Chunk.block c i) !clock
          end
          else begin
            let disk = Chunk.disk c i and bytes = Chunk.bytes c i in
            let d =
              match fault with
              | None -> disk
              | Some fs -> Fault.serving_disk fs ~disk ~now:!clock
            in
            if d <> disk then
              Disk_state.record s.disks.(d) ~at:!clock (Timeline.Redirect disk);
            (* Bounded queue: a full queue stalls the application until
               the next dispatch frees a slot. *)
            while pend_n.(d) >= s.depth do
              let t = next_t d in
              dispatch d;
              if t > !clock then clock := t
            done;
            let arrival = !clock in
            Observe.observe_arrival obs ~ring:s.recent.(d)
              ~queued:pend_n.(d) ~arrival;
            enqueue d ~arrival ~block:(Chunk.block c i) ~bytes;
            let nominal =
              Service.request_time s.models.(d) ~level:s.tops.(d) ~bytes
            in
            match mode with
            | `Open -> clock := arrival +. nominal
            | `Closed ->
                (* One request in flight at a time: serve it now and
                   block on its completion. *)
                while pend_n.(d) > 0 do
                  dispatch d
                done;
                clock := s.backlog.(d)
          end)
        stream;
      (* End of trace: the queues flush — every request completes, so
         the disciplines cannot starve anything. *)
      drain_until infinity;
      finish s ~program ~clock:(!clock +. Stream.tail_think stream)
