(* Specialized zero-allocation replay core.

   Mirrors both reference bodies in {!Sched} — the eager FCFS step
   ({!Sched.fcfs_step}) and the deferred-dispatch body of SSTF, SCAN,
   C-LOOK and SSTF-R — over the same structure-of-arrays rows
   ([Trace.Stream.next_soa]), with mechanical transformations, none of
   which changes a single float operation or its order:

   - the chunk's columns are bound once per chunk and indexed with
     unchecked loads in one inner loop, instead of one accessor call
     per field per row;
   - the policy's hook sites are resolved once per replay into values
     the inner loops branch on (whether directives apply, the [Timer]
     threshold of the inlined TPM catch-up, whether the [Hooked]
     closures run), so [Passive], [Directive_only] and [Timer]
     policies make no closure calls per event;
   - the application clock lives in a one-element float array (the
     reference threads a boxed float), the per-request service
     arithmetic for the dominant disk state ([Ready], not failed, no
     recorder) is inlined against the [Disk_state] record using the
     per-level tables precomputed at [Disk_state.create], and
     telemetry/fault [option] checks are hoisted so the [None] cases
     make no calls at all;
   - under a deferred discipline, each disk's bounded queue is a slice
     of flat unboxed columns allocated once per replay, each disk's
     next dispatch time is cached and recomputed only when that disk's
     queue or backlog changes (the reference rescans every queue per
     event), and the discipline's pick is an allocation-free scan whose
     order — a key, then the sequence number — is the reference's
     tie-break; a [Timeline.Dispatch] mark is built only when a
     recorder is attached.

   Both loops serve through [serve_fast].  The rest of the service step
   (catch-up, retry sample, backlog, completion ring, makespan,
   observation, nominal time, completion hook) is written out in each
   loop: as one shared function, inlined or not, it read 5-20% fewer
   FCFS events/s on `bench -- throughput`.  Per-disk setup, directive
   application and result assembly are {!Sched}'s own, so only the
   per-event bodies are re-implemented here.  The reference bodies stay
   authoritative: every behavioural claim here is pinned by the
   differential suite (test/test_fastpath.ml), which asserts
   byte-identical results, timelines, fault counters and histograms
   across both cores. *)

module Stream = Dpm_trace.Trace.Stream
module Chunk = Stream.Chunk
module A1 = Bigarray.Array1

(* [Disk_state.serve] with the overwhelmingly common case — [Ready],
   alive, no timeline recorder — inlined as straight-line arithmetic.
   Operation-for-operation identical to the general path
   ([max]/[advance]/[ready_at]/[serve]): the idle charge and residency
   are guarded like [charge]/[note_residency], the active charge like
   [charge], and the service residency is unguarded like [serve]'s.
   Every other case (transitions, standby, failed, recording) takes the
   general function.

   The request time crosses this call through [fbuf] — a float-array
   mailbox ([fbuf.(0)] is the issue time on entry, the completion time
   on return) — because ocamlopt's uniform calling convention would box
   a float argument and a float return at any non-inlined call site,
   and this core's zero-allocation claim must not depend on the
   inliner's mood.  Float-array loads and stores compile to raw
   moves. *)
let serve_fast (st : Disk_state.t) ~fbuf ~bytes =
  match st.phase with
  | Disk_state.Ready lvl
    when (match st.killed_at with None -> true | Some _ -> false)
         && (match st.recorder with None -> true | Some _ -> false) ->
      let hot = st.Disk_state.hot in
      let now = Array.unsafe_get fbuf 0 in
      let lu = Array.unsafe_get hot Disk_state.ix_last_update in
      let now = if now >= lu then now else lu in
      if now > lu then begin
        let dt = now -. lu in
        Array.unsafe_set hot Disk_state.ix_total_energy
          (Array.unsafe_get hot Disk_state.ix_total_energy
          +. (Array.unsafe_get st.idle_power lvl *. dt));
        Array.unsafe_set st.residency lvl
          (Array.unsafe_get st.residency lvl +. dt)
      end;
      let fbytes = float_of_int bytes in
      let flvl = float_of_int lvl in
      let quot =
        if
          fbytes = Array.unsafe_get hot Disk_state.ix_svc_bytes
          && flvl = Array.unsafe_get hot Disk_state.ix_svc_level
        then Array.unsafe_get hot Disk_state.ix_svc_quot
        else begin
          let q = fbytes /. Array.unsafe_get st.svc_denom lvl in
          Array.unsafe_set hot Disk_state.ix_svc_bytes fbytes;
          Array.unsafe_set hot Disk_state.ix_svc_level flvl;
          Array.unsafe_set hot Disk_state.ix_svc_quot q;
          q
        end
      in
      let service = Array.unsafe_get st.svc_base lvl +. quot in
      let completion = now +. service in
      if service > 0.0 then
        Array.unsafe_set hot Disk_state.ix_total_energy
          (Array.unsafe_get hot Disk_state.ix_total_energy
          +. (Array.unsafe_get st.active_power lvl *. service));
      Array.unsafe_set st.residency lvl
        (Array.unsafe_get st.residency lvl +. service);
      Array.unsafe_set hot Disk_state.ix_last_update completion;
      let slot = Disk_state.busy_slot st in
      Float.Array.unsafe_set st.Disk_state.busy slot now;
      Float.Array.unsafe_set st.Disk_state.busy (slot + 1) completion;
      st.served <- st.served + 1;
      Array.unsafe_set hot Disk_state.ix_idle_start completion;
      Array.unsafe_set fbuf 0 completion
  | _ ->
      Array.unsafe_set fbuf 0
        (Disk_state.serve st ~now:(Array.unsafe_get fbuf 0) ~bytes)

(* The policy's hook sites, resolved once per replay: whether the
   inlined TPM catch-up runs and at which threshold, and whether the
   [Hooked] closures run. *)
let hooks (policy : Policy.t) =
  match policy.Policy.kind with
  | Policy.Timer threshold -> (true, threshold, false)
  | Policy.Hooked -> (false, 0.0, true)
  | Policy.Passive | Policy.Directive_only -> (false, 0.0, false)

(* The eager FCFS loop ({!Sched.fcfs_step}).  Returns the application
   clock after the last row. *)
let replay_fcfs (s : Sched.state) ~kill (stream : Stream.t) =
  let { Sched.tops; disks; backlog; depth; recent; recent_pos; fault; obs; _ } =
    s
  in
  let policy = s.Sched.policy in
  let makespan = s.Sched.makespan in
  let open_mode = match s.Sched.mode with `Open -> true | `Closed -> false in
  let accepts = policy.Policy.accepts_directives in
  let timer, threshold, hooked = hooks policy in
  let catch_up = policy.Policy.catch_up in
  let on_complete = policy.Policy.on_complete in
  (* The application clock lives in [clockc] — a one-element float
     array, so updates are raw unboxed stores (a [float ref] would
     allocate a box per assignment, and a float loop argument would be
     boxed at every non-inlined call) — and service times cross
     [serve_fast] through the [fbuf] mailbox. *)
  let clockc = [| 0.0 |] and fbuf = [| 0.0 |] in
  (* The nominal (full-speed) service time is read off the serving
     disk's per-level tables at its top level:
     [svc_base.(top) +. bytes /. svc_denom.(top)] is float-identical to
     [Service.request_time models.(d) ~level:top].  [nomk]/[nomv] are a
     per-disk one-entry cache of that transfer quotient (see
     Disk_state.ix_svc_bytes): a hit is bit-identical to dividing and
     skips the second serial divide per event. *)
  let nomk = Array.make (Array.length disks) (-1.0) in
  let nomv = Array.make (Array.length disks) 0.0 in
  let running = ref true in
  while !running do
    match Stream.next_soa stream with
    | None -> running := false
    | Some c ->
        let len = c.Chunk.len in
        let thinkc = c.Chunk.think and tagc = c.Chunk.tag in
        let diskc = c.Chunk.disk and bytesc = c.Chunk.bytes in
        let blockc = c.Chunk.block in
        for i = 0 to len - 1 do
          let clock = Array.unsafe_get clockc 0 +. A1.unsafe_get thinkc i in
          (match fault with
          | None -> ()
          | Some fs -> Fault.sweep fs ~now:clock ~kill);
          let tag = A1.unsafe_get tagc i in
          if tag > Chunk.tag_write then
            Array.unsafe_set clockc 0
              (if accepts then
                 Sched.apply_directive s tag
                   (A1.unsafe_get diskc i)
                   (A1.unsafe_get blockc i)
                   clock
               else clock)
          else begin
            let disk0 = A1.unsafe_get diskc i in
            let d =
              match fault with
              | None -> disk0
              | Some fs -> Fault.serving_disk fs ~disk:disk0 ~now:clock
            in
            if d <> disk0 then
              Disk_state.record
                (Array.unsafe_get disks d)
                ~at:clock (Timeline.Redirect disk0);
            let st = Array.unsafe_get disks d in
            let ring = Array.unsafe_get recent d in
            let pos = Array.unsafe_get recent_pos d in
            let oldest = Array.unsafe_get ring pos in
            let arrival = if oldest > clock then oldest else clock in
            (match obs with
            | None -> ()
            | Some o -> Observe.arrival o ~ring ~queued:0 ~arrival);
            let b = Array.unsafe_get backlog d in
            let issue = if arrival >= b then arrival else b in
            if timer then begin
              (* [Policy.tpm]'s catch_up, inlined: fixed-threshold
                 spin-down fired retroactively at its expiry. *)
              match st.Disk_state.phase with
              | Disk_state.Ready _ ->
                  let fire_at =
                    Array.unsafe_get st.Disk_state.hot
                      Disk_state.ix_idle_start
                    +. threshold
                  in
                  if issue >= fire_at then Disk_state.spin_down st ~now:fire_at
              | Disk_state.Changing _ | Disk_state.Spinning_down _
              | Disk_state.Standby | Disk_state.Spinning_up _ ->
                  ()
            end
            else if hooked then catch_up st ~now:issue;
            let before =
              match obs with
              | None -> 0
              | Some _ -> (
                  match fault with
                  | Some fs -> Fault.retries_so_far fs
                  | None -> 0)
            in
            let bytes = A1.unsafe_get bytesc i in
            (match fault with
            | None ->
                Array.unsafe_set fbuf 0 issue;
                serve_fast st ~fbuf ~bytes
            | Some fs ->
                Array.unsafe_set fbuf 0
                  (Fault.serve fs st ~now:issue ~bytes
                     ~block:(A1.unsafe_get blockc i)));
            let completion = Array.unsafe_get fbuf 0 in
            Array.unsafe_set backlog d completion;
            Array.unsafe_set ring pos completion;
            Array.unsafe_set recent_pos d
              (let p = pos + 1 in
               if p = depth then 0 else p);
            if completion > Array.unsafe_get makespan 0 then
              Array.unsafe_set makespan 0 completion;
            let response = completion -. arrival in
            (match obs with
            | None -> ()
            | Some o ->
                Observe.service o ~fault ~retries_before:before ~response);
            Array.unsafe_set clockc 0
              (if open_mode || hooked then begin
                 let top = Array.unsafe_get tops d in
                 let fbytes = float_of_int bytes in
                 let quot =
                   if fbytes = Array.unsafe_get nomk d then
                     Array.unsafe_get nomv d
                   else begin
                     let q = fbytes /. Array.unsafe_get st.svc_denom top in
                     Array.unsafe_set nomk d fbytes;
                     Array.unsafe_set nomv d q;
                     q
                   end
                 in
                 let nominal = Array.unsafe_get st.svc_base top +. quot in
                 if hooked then
                   on_complete st ~now:completion ~response ~nominal;
                 if open_mode then arrival +. nominal else completion
               end
               else completion)
          end
        done
  done;
  Array.unsafe_get clockc 0

(* --- Deferred dispatch ---

   Disk [d]'s bounded queue is slots [d * depth .. d * depth + count.(d)
   - 1] of the columns; a dispatched slot is refilled from the queue's
   last.  Every pick below is independent of slot order, as the
   reference's is of its array order: each is the least candidate under
   a strict total order. *)
type queues = {
  depth : int;
  arrival : float array;
  pos : int array;
      (** Scheduling position: the block, or under SSTF-R a remapped
          block's spare-pool position. *)
  block : int array;
  bytes : int array;
  seq : int array;  (** Enqueue order: every tie-break, as in the reference. *)
  count : int array;
  head : int array;  (** Per disk: the position last dispatched. *)
  up : bool array;  (** Per disk: SCAN's direction. *)
  next : float array;
      (** Per disk: [Float.max backlog (earliest queued arrival)], the
          reference's [next_t]; [infinity] when the queue is empty. *)
}

let queues ~ndisks ~depth =
  let n = ndisks * depth in
  {
    depth;
    arrival = Array.make n 0.0;
    pos = Array.make n 0;
    block = Array.make n 0;
    bytes = Array.make n 0;
    seq = Array.make n 0;
    count = Array.make ndisks 0;
    head = Array.make ndisks 0;
    up = Array.make ndisks true;
    next = Array.make ndisks infinity;
  }

(* Recompute disk [d]'s cached dispatch time after its queue or backlog
   changed, with the reference's own float operations. *)
let refresh q ~backlog d =
  let n = Array.unsafe_get q.count d in
  if n = 0 then Array.unsafe_set q.next d infinity
  else begin
    let base = d * q.depth in
    Array.unsafe_set q.next d (Array.unsafe_get q.arrival base);
    for k = base + 1 to base + n - 1 do
      let a = Array.unsafe_get q.arrival k in
      if a < Array.unsafe_get q.next d then Array.unsafe_set q.next d a
    done;
    Array.unsafe_set q.next d
      (Float.max (Array.unsafe_get backlog d) (Array.unsafe_get q.next d))
  end

(* Which queued positions a pick considers, relative to the head. *)
type keep = All | Above | Below

(* The key a pick minimizes before the sequence number: the distance
   from the head (SSTF), the position (upward sweeps), or its negation
   (downward sweeps). *)
type order = Nearest | Lowest | Highest

(* The slot of disk [d]'s least candidate by ([order] key, seq) among
   the requests arrived by its dispatch time [next.(d)] whose position
   [keep] admits; -1 when there is none.  Top-level with immediate
   arguments and the time read from the column, so a pick allocates
   nothing. *)
let best q d ~keep ~order =
  let base = d * q.depth in
  let at = Array.unsafe_get q.next d and h = Array.unsafe_get q.head d in
  let bi = ref (-1) and bkey = ref 0 and bseq = ref 0 in
  for k = base to base + Array.unsafe_get q.count d - 1 do
    let p = Array.unsafe_get q.pos k in
    if
      Array.unsafe_get q.arrival k <= at
      && match keep with All -> true | Above -> p >= h | Below -> p <= h
    then begin
      let key =
        match order with
        | Nearest -> abs (p - h)
        | Lowest -> p
        | Highest -> -p
      in
      let sq = Array.unsafe_get q.seq k in
      if !bi < 0 || key < !bkey || (key = !bkey && sq < !bseq) then begin
        bi := k;
        bkey := key;
        bseq := sq
      end
    end
  done;
  !bi

(* The reference's [pick]: the slot disk [d] serves next.  FCFS never
   reaches it: [replay] sends it to [replay_fcfs]. *)
let pick q (sched : Config.sched) d =
  match sched with
  | Config.Fcfs -> assert false
  | Config.Sstf | Config.Sstf_remap -> best q d ~keep:All ~order:Nearest
  | Config.Scan ->
      if Array.unsafe_get q.up d then begin
        let k = best q d ~keep:Above ~order:Lowest in
        if k >= 0 then k
        else begin
          Array.unsafe_set q.up d false;
          best q d ~keep:Below ~order:Highest
        end
      end
      else begin
        let k = best q d ~keep:Below ~order:Highest in
        if k >= 0 then k
        else begin
          Array.unsafe_set q.up d true;
          best q d ~keep:Above ~order:Lowest
        end
      end
  | Config.Clook ->
      let k = best q d ~keep:Above ~order:Lowest in
      if k >= 0 then k else best q d ~keep:All ~order:Lowest

(* The deferred-dispatch loop (the reference's deferred body).  Returns
   the application clock after the last row. *)
let replay_deferred (s : Sched.state) ~kill (stream : Stream.t) =
  let { Sched.tops; disks; backlog; depth; recent; recent_pos; fault; obs; _ } =
    s
  in
  let policy = s.Sched.policy in
  let makespan = s.Sched.makespan in
  let sched = s.Sched.config.Config.sched in
  let ndisks = Array.length disks in
  let open_mode = match s.Sched.mode with `Open -> true | `Closed -> false in
  let accepts = policy.Policy.accepts_directives in
  let timer, threshold, hooked = hooks policy in
  let catch_up = policy.Policy.catch_up in
  let on_complete = policy.Policy.on_complete in
  let q = queues ~ndisks ~depth in
  (* SSTF-R prices a remapped block at the spare pool past the data
     blocks; [nblocks] was already forced when the bad regions were
     drawn. *)
  let remap =
    match (sched, fault) with
    | Config.Sstf_remap, Some fs
      when Fault.bad_regions (Fault.plan_of fs) <> [] ->
        Some (Fault.plan_of fs, Stream.nblocks stream)
    | _ -> None
  in
  (* The mailbox: the issue time into [serve_fast] and the completion
     out of it, then the nominal service time, then the drain limit;
     the application clock lives in [clockc] as in [replay_fcfs]. *)
  let fbuf = [| 0.0; 0.0; 0.0 |] and clockc = [| 0.0 |] in
  let ix_nominal = 1 and ix_limit = 2 in
  (* The nominal service time and its per-disk cache, as in
     [replay_fcfs], into [fbuf.(ix_nominal)]. *)
  let nomk = Array.make ndisks (-1.0) and nomv = Array.make ndisks 0.0 in
  let nominal d (st : Disk_state.t) bytes =
    let top = Array.unsafe_get tops d in
    let fbytes = float_of_int bytes in
    let quot =
      if fbytes = Array.unsafe_get nomk d then Array.unsafe_get nomv d
      else begin
        let q = fbytes /. Array.unsafe_get st.svc_denom top in
        Array.unsafe_set nomk d fbytes;
        Array.unsafe_set nomv d q;
        q
      end
    in
    Array.unsafe_set fbuf ix_nominal (Array.unsafe_get st.svc_base top +. quot)
  in
  (* Dispatch disk [d]'s pick at its cached dispatch time: the
     reference's [dispatch], with [replay_fcfs]'s service step. *)
  let dispatch d =
    let t_disp = Array.unsafe_get q.next d in
    (match fault with None -> () | Some fs -> Fault.sweep fs ~now:t_disp ~kill);
    let k = pick q sched d in
    let arrival = Array.unsafe_get q.arrival k in
    let pos = Array.unsafe_get q.pos k in
    let block = Array.unsafe_get q.block k in
    let bytes = Array.unsafe_get q.bytes k in
    let last = (d * depth) + Array.unsafe_get q.count d - 1 in
    Array.unsafe_set q.arrival k (Array.unsafe_get q.arrival last);
    Array.unsafe_set q.pos k (Array.unsafe_get q.pos last);
    Array.unsafe_set q.block k (Array.unsafe_get q.block last);
    Array.unsafe_set q.bytes k (Array.unsafe_get q.bytes last);
    Array.unsafe_set q.seq k (Array.unsafe_get q.seq last);
    Array.unsafe_set q.count d (Array.unsafe_get q.count d - 1);
    let st = Array.unsafe_get disks d in
    let seek = pos - Array.unsafe_get q.head d in
    Array.unsafe_set q.head d pos;
    (match st.Disk_state.recorder with
    | None -> ()
    | Some _ ->
        Disk_state.record st ~at:t_disp
          (Timeline.Dispatch { disc = sched; pos; arrival }));
    if timer then begin
      match st.Disk_state.phase with
      | Disk_state.Ready _ ->
          let fire_at =
            Array.unsafe_get st.Disk_state.hot Disk_state.ix_idle_start
            +. threshold
          in
          if t_disp >= fire_at then Disk_state.spin_down st ~now:fire_at
      | Disk_state.Changing _ | Disk_state.Spinning_down _
      | Disk_state.Standby | Disk_state.Spinning_up _ ->
          ()
    end
    else if hooked then catch_up st ~now:t_disp;
    let before =
      match obs with
      | None -> 0
      | Some _ -> (
          match fault with Some fs -> Fault.retries_so_far fs | None -> 0)
    in
    (match fault with
    | None ->
        Array.unsafe_set fbuf 0 t_disp;
        serve_fast st ~fbuf ~bytes
    | Some fs ->
        Array.unsafe_set fbuf 0 (Fault.serve fs st ~now:t_disp ~bytes ~block));
    let completion = Array.unsafe_get fbuf 0 in
    Array.unsafe_set backlog d completion;
    let rpos = Array.unsafe_get recent_pos d in
    Array.unsafe_set (Array.unsafe_get recent d) rpos completion;
    Array.unsafe_set recent_pos d
      (let p = rpos + 1 in
       if p = depth then 0 else p);
    if completion > Array.unsafe_get makespan 0 then
      Array.unsafe_set makespan 0 completion;
    let response = completion -. arrival in
    (match obs with
    | None -> ()
    | Some o ->
        Observe.service o ~fault ~retries_before:before ~response;
        Observe.observe_dispatch obs ~wait:(t_disp -. arrival)
          ~seek_blocks:seek);
    if hooked then begin
      nominal d st bytes;
      on_complete st ~now:completion ~response
        ~nominal:(Array.unsafe_get fbuf ix_nominal)
    end;
    refresh q ~backlog d
  in
  (* Issue, in global time order, every dispatch scheduled strictly
     before [fbuf.(ix_limit)]; the earliest disk wins, the lowest id on
     a tie. *)
  let drain () =
    let continue = ref true in
    while !continue do
      let bd = ref (-1) in
      for d = 0 to ndisks - 1 do
        if
          Array.unsafe_get q.next d
          < if !bd < 0 then infinity else Array.unsafe_get q.next !bd
        then bd := d
      done;
      if
        !bd >= 0
        && Array.unsafe_get q.next !bd < Array.unsafe_get fbuf ix_limit
      then dispatch !bd
      else continue := false
    done
  in
  let seq = ref 0 in
  let running = ref true in
  while !running do
    match Stream.next_soa stream with
    | None -> running := false
    | Some c ->
        let len = c.Chunk.len in
        let thinkc = c.Chunk.think and tagc = c.Chunk.tag in
        let diskc = c.Chunk.disk and bytesc = c.Chunk.bytes in
        let blockc = c.Chunk.block in
        for i = 0 to len - 1 do
          let clock = Array.unsafe_get clockc 0 +. A1.unsafe_get thinkc i in
          Array.unsafe_set clockc 0 clock;
          Array.unsafe_set fbuf ix_limit clock;
          drain ();
          (match fault with
          | None -> ()
          | Some fs -> Fault.sweep fs ~now:clock ~kill);
          let tag = A1.unsafe_get tagc i in
          if tag > Chunk.tag_write then begin
            if accepts then
              Array.unsafe_set clockc 0
                (Sched.apply_directive s tag
                   (A1.unsafe_get diskc i)
                   (A1.unsafe_get blockc i)
                   clock)
          end
          else begin
            let disk0 = A1.unsafe_get diskc i in
            let d =
              match fault with
              | None -> disk0
              | Some fs -> Fault.serving_disk fs ~disk:disk0 ~now:clock
            in
            if d <> disk0 then
              Disk_state.record
                (Array.unsafe_get disks d)
                ~at:clock (Timeline.Redirect disk0);
            (* Bounded queue: a full queue stalls the application until
               the next dispatch frees a slot. *)
            while Array.unsafe_get q.count d >= depth do
              let t = Array.unsafe_get q.next d in
              dispatch d;
              if t > Array.unsafe_get clockc 0 then Array.unsafe_set clockc 0 t
            done;
            let arrival = Array.unsafe_get clockc 0 in
            (match obs with
            | None -> ()
            | Some o ->
                Observe.arrival o
                  ~ring:(Array.unsafe_get recent d)
                  ~queued:(Array.unsafe_get q.count d)
                  ~arrival);
            let block = A1.unsafe_get blockc i in
            let bytes = A1.unsafe_get bytesc i in
            let k = (d * depth) + Array.unsafe_get q.count d in
            Array.unsafe_set q.arrival k arrival;
            Array.unsafe_set q.pos k
              (match remap with
              | Some (plan, spare) when Fault.bad_block plan ~block -> spare
              | Some _ | None -> block);
            Array.unsafe_set q.block k block;
            Array.unsafe_set q.bytes k bytes;
            Array.unsafe_set q.seq k !seq;
            incr seq;
            Array.unsafe_set q.count d (Array.unsafe_get q.count d + 1);
            refresh q ~backlog d;
            if open_mode then begin
              nominal d (Array.unsafe_get disks d) bytes;
              Array.unsafe_set clockc 0
                (arrival +. Array.unsafe_get fbuf ix_nominal)
            end
            else begin
              (* One request in flight at a time: serve it now and
                 block on its completion. *)
              while Array.unsafe_get q.count d > 0 do
                dispatch d
              done;
              Array.unsafe_set clockc 0 (Array.unsafe_get backlog d)
            end
          end
        done
  done;
  (* End of trace: the queues flush — every request completes. *)
  Array.unsafe_set fbuf ix_limit infinity;
  drain ();
  Array.unsafe_get clockc 0

let replay ~config ~mode ~fault ~timeline ~obs (policy : Policy.t)
    (stream : Stream.t) =
  let s =
    Sched.create ~config ~mode ~fault ~timeline ~obs policy
      ~ndisks:(Stream.ndisks stream)
  in
  let disks = s.Sched.disks in
  let kill d at = Disk_state.fail disks.(d) ~at in
  let clock =
    match config.Config.sched with
    | Config.Fcfs -> replay_fcfs s ~kill stream
    | Config.Sstf | Config.Scan | Config.Clook | Config.Sstf_remap ->
        replay_deferred s ~kill stream
  in
  Sched.finish s ~program:(Stream.program stream)
    ~clock:(clock +. Stream.tail_think stream)
