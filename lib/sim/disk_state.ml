module Specs = Dpm_disk.Specs
module Rpm = Dpm_disk.Rpm
module Power = Dpm_disk.Power
module Service = Dpm_disk.Service

(* Indices into [t.hot].  The hot mutable floats live in a flat float
   array rather than as record fields: a float field of a mixed record
   boxes on every write (uniform representation), and these three are
   written per served request on the replay fast path
   ({!Fastpath.replay}), where that boxing was the last per-event
   allocation. *)
let ix_last_update = 0
let ix_total_energy = 1
let ix_idle_start = 2

(* One-entry transfer-quotient cache for the fast path: the last
   [bytes /. svc_denom.(level)] computed, keyed by its operands (bytes
   and level stored as floats — exact for any realistic request size).
   A hit returns the identical bits a fresh division would, so the
   cache never perturbs results; it exists because two serial float
   divides per event dominate the replay inner loop and request sizes
   repeat heavily in real traces.  The key slots start at -1.0, which
   no non-negative byte count matches. *)
let ix_svc_bytes = 3
let ix_svc_level = 4
let ix_svc_quot = 5

type phase =
  | Ready of int
  | Changing of { from_level : int; to_level : int; finish : float }
  | Spinning_down of { finish : float }
  | Standby
  | Spinning_up of { finish : float }

type t = {
  specs : Specs.t;
  disk_id : int;
  recorder : Timeline.sink option;
  mutable phase : phase;
  hot : float array;
  mutable busy : Float.Array.t;
  mutable nbusy : int;
  mutable served : int;
  mutable transitions : int;
  mutable spin_downs : int;
  residency : float array;
  mutable standby_time : float;
  mutable trans_time : float;
  mutable killed_at : float option;
  idle_power : float array;
  active_power : float array;
  svc_base : float array;
  svc_denom : float array;
}

(* The per-level tables are computed through the exact same
   [Power]/[Service] calls the general path makes per request, so a
   table lookup yields bit-identical floats to recomputing. *)
let create ?recorder specs ~id =
  let levels = Rpm.num_levels specs in
  {
    specs;
    disk_id = id;
    recorder;
    phase = Ready (Rpm.max_level specs);
    hot =
      (let h = Array.make 6 0.0 in
       h.(ix_svc_bytes) <- -1.0;
       h.(ix_svc_level) <- -1.0;
       h);
    busy = Float.Array.create 0;
    nbusy = 0;
    served = 0;
    transitions = 0;
    spin_downs = 0;
    residency = Array.make levels 0.0;
    standby_time = 0.0;
    trans_time = 0.0;
    killed_at = None;
    idle_power = Array.init levels (fun l -> Power.idle specs ~level:l);
    active_power = Array.init levels (fun l -> Power.active specs ~level:l);
    svc_base =
      Array.init levels (fun l ->
          Service.seek_time specs +. Service.rotation_time specs ~level:l);
    svc_denom = Array.init levels (fun l -> Service.transfer_denom specs ~level:l);
  }

(* The busy column holds interleaved (start, end) pairs in
   [busy.(0) .. busy.(nbusy - 1)].  [busy_slot] reserves the next pair
   and returns its index; the caller stores both floats itself.  An
   out-of-line [push t a b] would box both floats at every call (see
   [fbuf] in fastpath.ml), so the floats never cross a call: a
   reservation takes the record and returns an int.  The result keeps
   the column as it stands, so growth zero-fills the slack: two equal
   replays leave structurally equal columns. *)
let busy_slot t =
  let n = t.nbusy in
  if n + 2 > Float.Array.length t.busy then begin
    let grown = Float.Array.make (max 64 (2 * n)) 0.0 in
    Float.Array.blit t.busy 0 grown 0 n;
    t.busy <- grown
  end;
  t.nbusy <- n + 2;
  n

let id t = t.disk_id
let phase t = t.phase
let is_failed t = match t.killed_at with Some _ -> true | None -> false

let level t =
  match t.phase with
  | Ready l -> l
  | Changing { to_level; _ } -> to_level
  | Spinning_down _ | Standby -> 0
  | Spinning_up _ -> Rpm.max_level t.specs

let idle_since t = t.hot.(ix_idle_start)

let charge t power dt =
  if dt > 0.0 then t.hot.(ix_total_energy) <- t.hot.(ix_total_energy) +. (power *. dt)

(* Constant power drawn in each phase (service energy is charged
   separately by [serve]). *)
let phase_power t = function
  | Ready l -> Power.idle t.specs ~level:l
  | Changing { from_level; to_level; _ } ->
      Power.idle t.specs ~level:(max from_level to_level)
  | Spinning_down _ -> t.specs.Specs.e_spin_down /. t.specs.Specs.t_spin_down
  | Standby -> Power.standby t.specs
  | Spinning_up _ -> t.specs.Specs.e_spin_up /. t.specs.Specs.t_spin_up

let note_residency t ph dt =
  if dt > 0.0 then
    match ph with
    | Ready l -> t.residency.(l) <- t.residency.(l) +. dt
    | Standby -> t.standby_time <- t.standby_time +. dt
    | Changing _ | Spinning_down _ | Spinning_up _ ->
        t.trans_time <- t.trans_time +. dt

(* Timeline recording.  Purely observational: emission never feeds back
   into the accounting above, so a run with a sink installed produces
   the exact same [Result] as one without. *)

let state_of_phase = function
  | Ready l -> Timeline.Ready l
  | Changing { from_level; to_level; _ } ->
      Timeline.Changing { from_level; to_level }
  | Spinning_down _ -> Timeline.Spinning_down
  | Standby -> Timeline.Standby
  | Spinning_up _ -> Timeline.Spinning_up

let emit t ev =
  match t.recorder with Some s -> Timeline.emit s ev | None -> ()

(* Zero-width Ready/Standby residencies stay elided, but a zero-width
   transition span is still emitted: it witnesses the automaton edge for
   models whose spin transitions take no time (the flash tier), keeping
   the recorded log a legal walk.  Positive-duration transitions never
   produce zero-width spans, so logs of the classic models are
   unchanged. *)
let emit_span t ph t0 t1 =
  let keep =
    t1 > t0
    ||
    match ph with
    | Changing _ | Spinning_down _ | Spinning_up _ -> t1 = t0
    | Ready _ | Standby -> false
  in
  if keep then
    emit t
      (Timeline.Span { disk = t.disk_id; state = state_of_phase ph; t0; t1 })

let record t ~at mark = emit t (Timeline.Mark { disk = t.disk_id; t = at; mark })

let rec advance t now =
  if is_failed t then ()
  else if now <= t.hot.(ix_last_update) then resolve_instant t
  else
    match t.phase with
    | Ready _ | Standby ->
        let dt = now -. t.hot.(ix_last_update) in
        charge t (phase_power t t.phase) dt;
        note_residency t t.phase dt;
        emit_span t t.phase t.hot.(ix_last_update) now;
        t.hot.(ix_last_update) <- now
    | Changing { to_level; finish; _ }
      when now >= finish ->
        let dt = finish -. t.hot.(ix_last_update) in
        charge t (phase_power t t.phase) dt;
        note_residency t t.phase dt;
        emit_span t t.phase t.hot.(ix_last_update) finish;
        t.hot.(ix_last_update) <- finish;
        t.phase <- Ready to_level;
        advance t now
    | Spinning_down { finish } when now >= finish ->
        let dt = finish -. t.hot.(ix_last_update) in
        charge t (phase_power t t.phase) dt;
        note_residency t t.phase dt;
        emit_span t t.phase t.hot.(ix_last_update) finish;
        t.hot.(ix_last_update) <- finish;
        t.phase <- Standby;
        advance t now
    | Spinning_up { finish } when now >= finish ->
        let dt = finish -. t.hot.(ix_last_update) in
        charge t (phase_power t t.phase) dt;
        note_residency t t.phase dt;
        emit_span t t.phase t.hot.(ix_last_update) finish;
        t.hot.(ix_last_update) <- finish;
        t.phase <- Ready (Rpm.max_level t.specs);
        advance t now
    | Changing _ | Spinning_down _ | Spinning_up _ ->
        let dt = now -. t.hot.(ix_last_update) in
        charge t (phase_power t t.phase) dt;
        note_residency t t.phase dt;
        emit_span t t.phase t.hot.(ix_last_update) now;
        t.hot.(ix_last_update) <- now

(* A zero-time transition (the flash tier's instantaneous spin and
   modulation) can be pending with [finish = last_update]; no time needs
   integrating, but the phase must still resolve or chained operations
   ([ready_at]) would spin forever.  Positive-duration transitions never
   reach here unresolved, so classic models take the old path exactly. *)
and resolve_instant t =
  let lu = t.hot.(ix_last_update) in
  match t.phase with
  | Changing { to_level; finish; _ } when finish <= lu ->
      emit_span t t.phase finish finish;
      t.phase <- Ready to_level
  | Spinning_down { finish } when finish <= lu ->
      emit_span t t.phase finish finish;
      t.phase <- Standby
  | Spinning_up { finish } when finish <= lu ->
      emit_span t t.phase finish finish;
      t.phase <- Ready (Rpm.max_level t.specs)
  | Ready _ | Standby | Changing _ | Spinning_down _ | Spinning_up _ -> ()

(* Time at which the disk will next be [Ready] with no further
   intervention (standby never resolves by itself). *)
let settle_time t =
  match t.phase with
  | Ready _ -> t.hot.(ix_last_update)
  | Changing { finish; _ } | Spinning_up { finish } -> finish
  | Spinning_down { finish } -> finish (* settles into Standby *)
  | Standby -> t.hot.(ix_last_update)

let rec set_level t ~now target =
  (* Operations requested in the past (e.g. a directive issued while the
     disk still drains a queue) take effect at the disk's own clock. *)
  if is_failed t then ()
  else
  let now = max now t.hot.(ix_last_update) in
  advance t now;
  match t.phase with
  | Ready l when l = target -> ()
  | Ready l ->
      let finish =
        now +. Rpm.transition_time t.specs ~from_level:l ~to_level:target
      in
      t.transitions <- t.transitions + 1;
      t.phase <- Changing { from_level = l; to_level = target; finish }
  | Changing { to_level; finish; _ } ->
      if to_level <> target then begin
        advance t finish;
        set_level t ~now:finish target
      end
  | Spinning_up { finish } ->
      advance t finish;
      set_level t ~now:finish target
  | Standby | Spinning_down _ -> ()

let rec spin_down t ~now =
  if is_failed t then ()
  else
  let now = max now t.hot.(ix_last_update) in
  advance t now;
  match t.phase with
  | Standby | Spinning_down _ -> ()
  | Ready _ ->
      t.spin_downs <- t.spin_downs + 1;
      t.phase <- Spinning_down { finish = now +. t.specs.Specs.t_spin_down }
  | Changing { finish; _ } | Spinning_up { finish } ->
      advance t finish;
      spin_down t ~now:finish

let rec spin_up t ~now =
  if is_failed t then ()
  else
  let now = max now t.hot.(ix_last_update) in
  advance t now;
  match t.phase with
  | Ready _ | Spinning_up _ -> ()
  | Standby ->
      t.phase <- Spinning_up { finish = now +. t.specs.Specs.t_spin_up }
  | Spinning_down { finish } ->
      advance t finish;
      spin_up t ~now:finish
  | Changing { finish; _ } ->
      advance t finish;
      spin_up t ~now:finish

(* Resolve any in-flight or low-power state into Ready, returning the
   time the disk is able to transfer and the level it settles at. *)
let rec ready_at t now =
  match t.phase with
  | Ready l -> (now, l)
  | Standby ->
      spin_up t ~now;
      ready_at t now
  | Changing { finish; _ } | Spinning_down { finish } | Spinning_up { finish }
    ->
      advance t finish;
      ready_at t finish

let serve t ~now ~bytes =
  if is_failed t then max now t.hot.(ix_last_update)
  else begin
    let now = max now t.hot.(ix_last_update) in
    advance t now;
    let start, lvl = ready_at t now in
    let service = Service.request_time t.specs ~level:lvl ~bytes in
    let completion = start +. service in
    charge t (Power.active t.specs ~level:lvl) service;
    t.residency.(lvl) <- t.residency.(lvl) +. service;
    emit t
      (Timeline.Service
         {
           disk = t.disk_id;
           level = lvl;
           arrival = now;
           t0 = start;
           t1 = completion;
           bytes;
         });
    t.hot.(ix_last_update) <- completion;
    let i = busy_slot t in
    Float.Array.unsafe_set t.busy i start;
    Float.Array.unsafe_set t.busy (i + 1) completion;
    t.served <- t.served + 1;
    t.hot.(ix_idle_start) <- completion;
    completion
  end

let occupy t ~now ~seconds =
  if is_failed t || seconds <= 0.0 then max now t.hot.(ix_last_update)
  else begin
    let now = max now t.hot.(ix_last_update) in
    advance t now;
    let start, lvl = ready_at t now in
    let finish = start +. seconds in
    charge t (Power.active t.specs ~level:lvl) seconds;
    t.residency.(lvl) <- t.residency.(lvl) +. seconds;
    emit t
      (Timeline.Occupy
         { disk = t.disk_id; level = lvl; t0 = start; t1 = finish });
    t.hot.(ix_last_update) <- finish;
    let i = busy_slot t in
    Float.Array.unsafe_set t.busy i start;
    Float.Array.unsafe_set t.busy (i + 1) finish;
    t.hot.(ix_idle_start) <- finish;
    finish
  end

let abort_spin_up t ~now ~fraction =
  if is_failed t then max now t.hot.(ix_last_update)
  else begin
    let now = max now t.hot.(ix_last_update) in
    advance t now;
    match t.phase with
    | Standby ->
        let fraction = Float.max 0.0 (Float.min 1.0 fraction) in
        let dt = fraction *. t.specs.Specs.t_spin_up in
        if dt > 0.0 then begin
          t.hot.(ix_total_energy) <-
            t.hot.(ix_total_energy) +. Power.aborted_spin_up_energy t.specs ~fraction;
          t.hot.(ix_last_update) <- now +. dt
        end;
        emit t
          (Timeline.Aborted
             { disk = t.disk_id; t0 = now; t1 = now +. dt; fraction });
        now +. dt
    | Ready _ | Changing _ | Spinning_down _ | Spinning_up _ -> now
  end

let fail t ~at =
  if not (is_failed t) then begin
    advance t (max at t.hot.(ix_last_update));
    let at = t.hot.(ix_last_update) in
    record t ~at Timeline.Killed;
    t.killed_at <- Some at
  end

let finalize t ~at = advance t (max at (settle_time t))

let energy t = t.hot.(ix_total_energy)
let killed_at t = t.killed_at
let requests_served t = t.served
let transition_count t = t.transitions
let spin_down_count t = t.spin_downs
let level_residency t = Array.copy t.residency
let standby_residency t = t.standby_time
let transition_residency t = t.trans_time
