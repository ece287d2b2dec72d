(* Specialized zero-allocation replay core.

   Mirrors the eager FCFS reference body ({!Sched.fcfs_step}), which
   reads the same structure-of-arrays rows ([Trace.Stream.next_soa]),
   with mechanical transformations, none of which changes a single
   float operation or its order:

   - the chunk's columns are bound once per chunk and indexed with
     unchecked loads in one inner loop, instead of one accessor call
     per field per row;
   - the policy's hook sites are resolved once per replay into values
     the one inner loop branches on (whether directives apply, the
     [Timer] threshold of the inlined TPM catch-up, whether the
     [Hooked] closures run), so [Passive], [Directive_only] and [Timer]
     policies make no closure calls per event;
   - the application clock lives in a one-element float array (the
     reference threads a boxed float), the per-request service
     arithmetic for the dominant disk state ([Ready], not failed, no
     recorder) is inlined against the [Disk_state] record using the
     per-level tables precomputed at [Disk_state.create], and
     telemetry/fault [option] checks are hoisted so the [None] cases
     make no calls at all.

   Per-disk setup, directive application and result assembly are
   {!Sched}'s own, so only the per-event body is re-implemented here.
   The reference body stays authoritative: every behavioural claim
   here is pinned by the differential suite (test/test_fastpath.ml),
   which asserts byte-identical results, timelines, fault counters and
   histograms across both cores. *)

module Stream = Dpm_trace.Trace.Stream
module Chunk = Stream.Chunk
module A1 = Bigarray.Array1

(* Deferred queue disciplines reorder dispatches; only the eager FCFS
   order runs here, everything else takes the reference body in
   {!Sched}. *)
let supported ~config = config.Config.sched = Config.Fcfs

(* [Disk_state.serve] with the overwhelmingly common case — [Ready],
   alive, no timeline recorder — inlined as straight-line arithmetic.
   Operation-for-operation identical to the general path
   ([max]/[advance]/[ready_at]/[serve]): the idle charge and residency
   are guarded like [charge]/[note_residency], the active charge like
   [charge], and the service residency is unguarded like [serve]'s.
   Every other case (transitions, standby, failed, recording) takes the
   general function.

   The request time crosses this call through [fbuf] — a one-element
   float-array mailbox ([fbuf.(0)] is the issue time on entry, the
   completion time on return) — because ocamlopt's uniform calling
   convention would box a float argument and a float return at any
   non-inlined call site, and this core's zero-allocation claim must
   not depend on the inliner's mood.  Float-array loads and stores
   compile to raw moves. *)
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

let replay ~config ~mode ~fault ~timeline ~obs (policy : Policy.t)
    (stream : Stream.t) =
  if not (supported ~config) then
    invalid_arg "Fastpath.replay: only the FCFS scheduler is supported";
  let ndisks = Stream.ndisks stream in
  let s = Sched.create ~config ~mode ~fault ~timeline ~obs policy ~ndisks in
  let { Sched.tops; disks; backlog; depth; recent; recent_pos; _ } = s in
  let makespan = s.Sched.makespan in
  let open_mode = match mode with `Open -> true | `Closed -> false in
  let accepts = policy.Policy.accepts_directives in
  let timer, threshold, hooked =
    match policy.Policy.kind with
    | Policy.Timer threshold -> (true, threshold, false)
    | Policy.Hooked -> (false, 0.0, true)
    | Policy.Passive | Policy.Directive_only -> (false, 0.0, false)
  in
  let catch_up = policy.Policy.catch_up in
  let on_complete = policy.Policy.on_complete in
  let kill d at = Disk_state.fail disks.(d) ~at in
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
  let nomk = Array.make ndisks (-1.0) and nomv = Array.make ndisks 0.0 in
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
            | Some o -> Observe.arrival o ~ring ~arrival);
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
  Sched.finish s ~program:(Stream.program stream)
    ~clock:(Array.unsafe_get clockc 0 +. Stream.tail_think stream)
