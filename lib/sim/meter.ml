(* Streaming software-defined power meter.

   Each disk gets a lane: a growable per-window energy array plus a
   closing frontier.  An event deposits its energy into every window it
   overlaps, pro-rated by overlap (power is constant within an event),
   priced by [Timeline.energy_of], the one pricing
   [Timeline.reintegrate] also uses.  Because engine and
   oracle logs are chronological in [t0] per disk, every window that
   ends at or before the lane's latest [t0] can never receive another
   deposit, so it is closed — converted to a mean-power sample, pushed
   into the retention ring and added to the lane's running integral —
   the moment that frontier passes it.  [finish] closes the tails out
   to the common horizon with zero-power padding.

   The closing bound and the deposit lower bound use the same
   [widx t = int_of_float (t /. resolution)] truncation, so float
   rounding can never close a window a later event still deposits
   into. *)

module Specs = Dpm_disk.Specs
module Json = Dpm_util.Json
module Ring = Dpm_util.Ring

type sample = { disk : int; index : int; t0 : float; t1 : float; watts : float }

type lane = {
  mutable win : float array;  (* energy deposited per window *)
  mutable nwin : int;  (* highest touched window + 1 *)
  mutable closed : int;  (* windows already emitted as samples *)
  mutable frontier : float;  (* latest event t0 seen on this lane *)
  mutable emitted : float;  (* Σ watts·width over emitted samples *)
}

type t = {
  res : float;
  model : int -> Specs.t;
  slugs : string list;
  ring : sample Ring.t;
  on_sample : (sample -> unit) option;
  mutable lanes : lane array;  (* dense by disk id *)
  mutable fw : float array;  (* fleet-wide energy per window *)
  mutable fw_n : int;
  mutable sim_end_v : float;
  mutable horizon_v : float;  (* latest event end fed so far *)
  mutable finished : bool;
}

let default_resolution = 0.1
let schema_version = "dpm-meter/1"

let fresh_lane () =
  { win = [||]; nwin = 0; closed = 0; frontier = 0.0; emitted = 0.0 }

let make ?(resolution = default_resolution) ~model ~slugs ?capacity ?on_sample
    () =
  if not (Float.is_finite resolution && resolution > 0.0) then
    invalid_arg "Meter.create: resolution must be positive and finite";
  {
    res = resolution;
    model;
    slugs;
    ring = Ring.create ?capacity ();
    on_sample;
    lanes = [||];
    fw = [||];
    fw_n = 0;
    sim_end_v = 0.0;
    horizon_v = 0.0;
    finished = false;
  }

let create ?resolution ?(specs = Config.default.Config.specs) ?(fleet = [||])
    ?capacity ?on_sample () =
  let n = Array.length fleet in
  let model d = if n = 0 then specs else fleet.(d mod n) in
  let slugs =
    if n = 0 then [ Specs.name_of specs ]
    else Array.to_list (Array.map Specs.name_of fleet)
  in
  make ?resolution ~model ~slugs ?capacity ?on_sample ()

(* --- deposits and closing --- *)

let widx m t = int_of_float (t /. m.res)

let lane_of m disk =
  let n = Array.length m.lanes in
  if disk >= n then begin
    let lanes = Array.init (disk + 1) (fun _ -> fresh_lane ()) in
    Array.blit m.lanes 0 lanes 0 n;
    m.lanes <- lanes
  end;
  m.lanes.(disk)

let ensure_win l i =
  let n = Array.length l.win in
  if i >= n then begin
    let win = Array.make (max (i + 1) (max 16 (2 * n))) 0.0 in
    Array.blit l.win 0 win 0 n;
    l.win <- win
  end;
  if i + 1 > l.nwin then l.nwin <- i + 1

let ensure_fw m i =
  let n = Array.length m.fw in
  if i >= n then begin
    let fw = Array.make (max (i + 1) (max 16 (2 * n))) 0.0 in
    Array.blit m.fw 0 fw 0 n;
    m.fw <- fw
  end;
  if i + 1 > m.fw_n then m.fw_n <- i + 1

let add_win m l i e =
  ensure_win l i;
  l.win.(i) <- l.win.(i) +. e;
  ensure_fw m i;
  m.fw.(i) <- m.fw.(i) +. e

(* Spread energy [e] of an event covering [t0, t1) over the windows it
   overlaps, at constant rate.  A zero-width event that still carries
   energy lumps into the window containing [t0]. *)
let deposit m l ~t0 ~t1 e =
  if e <> 0.0 then
    if t1 <= t0 then add_win m l (max 0 (widx m t0)) e
    else begin
      let rate = e /. (t1 -. t0) in
      (* Analytic logs under faults may back-extend a burst before time
         0; there are no windows there, so the pre-zero share lumps into
         window 0 — energy is conserved, which is what the integral
         invariant needs. *)
      if t0 < 0.0 then add_win m l 0 (rate *. (Float.min t1 0.0 -. t0));
      let b = ref (max 0 (widx m t0)) in
      let continue = ref true in
      while !continue do
        let lo = float_of_int !b *. m.res in
        if lo >= t1 then continue := false
        else begin
          let hi = lo +. m.res in
          let slice = Float.min t1 hi -. Float.max t0 lo in
          if slice > 0.0 then add_win m l !b (rate *. slice);
          incr b
        end
      done
    end

let emit_sample m l disk i ~t1 =
  let t0 = float_of_int i *. m.res in
  let width = t1 -. t0 in
  let e = if i < Array.length l.win then l.win.(i) else 0.0 in
  let watts = if width > 0.0 then e /. width else 0.0 in
  let s = { disk; index = i; t0; t1; watts } in
  l.emitted <- l.emitted +. (watts *. width);
  Ring.push m.ring s;
  match m.on_sample with None -> () | Some f -> f s

(* Close every window of [l] that ends at or before the frontier: per
   disk events are chronological in [t0], so nothing can deposit there
   any more. *)
let close_ready m l disk =
  let bound = widx m l.frontier in
  while l.closed < bound do
    let i = l.closed in
    emit_sample m l disk i ~t1:(float_of_int (i + 1) *. m.res);
    l.closed <- i + 1
  done

let touch m l ~t0 ~t1 =
  if t1 > m.horizon_v then m.horizon_v <- t1;
  if t0 > l.frontier then l.frontier <- t0

let feed m ev =
  if m.finished then invalid_arg "Meter.feed: meter already finished";
  match ev with
  | Timeline.Span { disk; t0; t1; _ }
  | Timeline.Service { disk; t0; t1; _ }
  | Timeline.Occupy { disk; t0; t1; _ }
  | Timeline.Aborted { disk; t0; t1; _ } ->
      let l = lane_of m disk in
      touch m l ~t0 ~t1;
      close_ready m l disk;
      deposit m l ~t0 ~t1 (Timeline.energy_of (m.model disk) ev)
  | Timeline.Mark _ -> ()
  | Timeline.Sim_end t ->
      m.sim_end_v <- t;
      if t > m.horizon_v then m.horizon_v <- t

let attach m sink = Timeline.on_emit sink (fun ev -> feed m ev)

let nwindows m =
  if m.horizon_v <= 0.0 then 0
  else int_of_float (Float.ceil (m.horizon_v /. m.res))

let finish m =
  if not m.finished then begin
    m.finished <- true;
    if m.sim_end_v > m.horizon_v then m.horizon_v <- m.sim_end_v;
    let nw = nwindows m in
    Array.iteri
      (fun disk l ->
        while l.closed < nw do
          let i = l.closed in
          let t1 = Float.min (float_of_int (i + 1) *. m.res) m.horizon_v in
          emit_sample m l disk i ~t1;
          l.closed <- i + 1
        done)
      m.lanes
  end

let of_timeline ?resolution ?specs ?fleet ?capacity log =
  let model = Timeline.resolve_models ?specs ?fleet log in
  let slugs =
    match fleet with
    | Some fl when Array.length fl > 0 ->
        Array.to_list (Array.map Specs.name_of fl)
    | _ -> (
        match Timeline.fleet log with
        | [] -> [ Specs.name_of (model 0) ]
        | label ->
            if List.for_all (fun s -> Specs.of_name_opt s <> None) label then
              label
            else [ Specs.name_of (model 0) ])
  in
  let m = make ?resolution ~model ~slugs ?capacity () in
  List.iter (fun ev -> feed m ev) (Timeline.events log);
  finish m;
  m

(* --- reading --- *)

let resolution m = m.res
let ndisks m = Array.length m.lanes
let sim_end m = m.sim_end_v
let horizon m = m.horizon_v
let dropped m = Ring.dropped m.ring

let samples m =
  let l = Ring.to_list m.ring in
  List.stable_sort
    (fun a b ->
      match compare a.disk b.disk with 0 -> compare a.index b.index | c -> c)
    l

let lane m disk = List.filter (fun s -> s.disk = disk) (samples m)

let integral m =
  let per_disk = Array.map (fun l -> l.emitted) m.lanes in
  { Timeline.per_disk; total = Array.fold_left ( +. ) 0.0 per_disk }

(* Window width: Δ everywhere except the final window, truncated at the
   horizon. *)
let width_of m nw i =
  let lo = float_of_int i *. m.res in
  let hi =
    if i = nw - 1 then Float.max m.horizon_v lo else lo +. m.res
  in
  hi -. lo

let peak_power m =
  let nw = nwindows m in
  let peak = ref 0.0 in
  for i = 0 to min nw m.fw_n - 1 do
    let w = width_of m nw i in
    if w > 0.0 then begin
      let p = m.fw.(i) /. w in
      if p > !peak then peak := p
    end
  done;
  !peak

let total_energy m =
  let t = ref 0.0 in
  for i = 0 to m.fw_n - 1 do
    t := !t +. m.fw.(i)
  done;
  !t

let mean_power m =
  if m.horizon_v <= 0.0 then 0.0 else total_energy m /. m.horizon_v

(* --- rendering --- *)

let ramp = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |]

let lane_power m l nw i =
  let w = width_of m nw i in
  if w <= 0.0 then 0.0
  else (if i < Array.length l.win then l.win.(i) else 0.0) /. w

let per_disk_peak m =
  let nw = nwindows m in
  Array.fold_left
    (fun acc l ->
      let p = ref acc in
      for i = 0 to nw - 1 do
        let v = lane_power m l nw i in
        if v > !p then p := v
      done;
      !p)
    0.0 m.lanes

let strip ?(width = 64) m =
  let nw = nwindows m in
  let pmax = per_disk_peak m in
  let buf = Buffer.create 256 in
  let cols = max 1 width in
  Array.iteri
    (fun disk l ->
      Buffer.add_string buf (Printf.sprintf "disk %-3d |" disk);
      for c = 0 to cols - 1 do
        (* Width-weighted mean power over the windows this column covers. *)
        let lo = c * nw / cols and hi = max ((c + 1) * nw / cols) ((c * nw / cols) + 1) in
        let e = ref 0.0 and w = ref 0.0 in
        for i = lo to min (hi - 1) (nw - 1) do
          let wi = width_of m nw i in
          e := !e +. (lane_power m l nw i *. wi);
          w := !w +. wi
        done;
        let p = if !w > 0.0 then !e /. !w else 0.0 in
        let glyph =
          if pmax <= 0.0 || p <= 0.0 then ramp.(0)
          else ramp.(min 9 (1 + int_of_float (p /. pmax *. 8.0)))
        in
        Buffer.add_char buf glyph
      done;
      Buffer.add_string buf "|\n")
    m.lanes;
  Buffer.contents buf

let summary m =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "power meter: resolution %gs, %d windows, horizon %.3fs, %d samples \
        kept (%d dropped)\n"
       m.res (nwindows m) m.horizon_v (Ring.length m.ring) (dropped m));
  Buffer.add_string buf
    (Printf.sprintf "power strip over [0, %.3fs] (shade ramp \" .:-=+*#%%@\", \
                     lane peak %.2f W):\n"
       m.horizon_v (per_disk_peak m));
  Buffer.add_string buf (strip m);
  let table =
    Dpm_util.Table.create ~title:"per-disk power"
      ~columns:
        [
          ("disk", Dpm_util.Table.Left);
          ("model", Dpm_util.Table.Left);
          ("peak-w", Dpm_util.Table.Right);
          ("mean-w", Dpm_util.Table.Right);
          ("energy-j", Dpm_util.Table.Right);
        ]
  in
  let nw = nwindows m in
  Array.iteri
    (fun disk l ->
      let peak = ref 0.0 and energy = ref 0.0 in
      for i = 0 to nw - 1 do
        let p = lane_power m l nw i in
        if p > !peak then peak := p;
        energy := !energy +. (if i < Array.length l.win then l.win.(i) else 0.0)
      done;
      let mean = if m.horizon_v > 0.0 then !energy /. m.horizon_v else 0.0 in
      Dpm_util.Table.add_row table
        [
          string_of_int disk;
          Specs.name_of (m.model disk);
          Dpm_util.Table.cell_f !peak;
          Dpm_util.Table.cell_f mean;
          Dpm_util.Table.cell_f !energy;
        ])
    m.lanes;
  Buffer.add_string buf (Dpm_util.Table.render table);
  Buffer.add_string buf
    (Printf.sprintf "fleet: peak %.2f W, mean %.2f W, energy %.2f J\n"
       (peak_power m) (mean_power m) (total_energy m));
  Buffer.contents buf

(* --- export: dpm-meter/1 --- *)

type section = {
  m_scheme : string;
  m_program : string;
  m_resolution : float;
  m_ndisks : int;
  m_windows : int;
  m_sim_end : float;
  m_horizon : float;
  m_fleet : string list;
  m_dropped : int;
  m_samples : sample list;
}

let to_section ?(scheme = "") ?(program = "") m =
  {
    m_scheme = scheme;
    m_program = program;
    m_resolution = m.res;
    m_ndisks = ndisks m;
    m_windows = nwindows m;
    m_sim_end = m.sim_end_v;
    m_horizon = m.horizon_v;
    m_fleet = m.slugs;
    m_dropped = dropped m;
    m_samples = samples m;
  }

let fstr x = Printf.sprintf "%.17g" x
let json_str s = Json.to_string (Json.Str s)

let write_jsonl sec oc =
  Printf.fprintf oc
    "{\"schema\":%s,\"scheme\":%s,\"program\":%s,\"resolution\":%s,\"ndisks\":%d,\"windows\":%d,\"sim_end\":%s,\"horizon\":%s,\"fleet\":%s,\"dropped\":%d}\n"
    (json_str schema_version) (json_str sec.m_scheme) (json_str sec.m_program)
    (fstr sec.m_resolution) sec.m_ndisks sec.m_windows (fstr sec.m_sim_end)
    (fstr sec.m_horizon)
    (json_str (String.concat ";" sec.m_fleet))
    sec.m_dropped;
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"disk\":%d,\"i\":%d,\"t0\":%s,\"t1\":%s,\"w\":%s}\n"
        s.disk s.index (fstr s.t0) (fstr s.t1) (fstr s.watts))
    sec.m_samples

let write_csv sec oc =
  output_string oc "scheme,program,disk,index,t0,t1,watts\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%s,%s,%d,%d,%s,%s,%s\n" sec.m_scheme sec.m_program
        s.disk s.index (fstr s.t0) (fstr s.t1) (fstr s.watts))
    sec.m_samples

let read_jsonl ic =
  let need conv kind j k =
    match Option.bind (Json.member k j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing %s %s" kind k)
  in
  let str = need Json.to_str "string"
  and num = need Json.to_float "number"
  and int = need Json.to_int "int" in
  let ( let* ) = Stdlib.Result.bind in
  let header j =
    match Json.member "schema" j with
    | None -> None
    | Some s when Json.to_str s <> Some schema_version ->
        Some (Error "unsupported schema")
    | Some _ ->
        Some
          (let* m_scheme = str j "scheme" in
           let* m_program = str j "program" in
           let* m_resolution = num j "resolution" in
           let* m_ndisks = int j "ndisks" in
           let* m_windows = int j "windows" in
           let* m_sim_end = num j "sim_end" in
           let* m_horizon = num j "horizon" in
           let* fleet = str j "fleet" in
           let* m_dropped = int j "dropped" in
           let m_fleet =
             match String.split_on_char ';' fleet with [ "" ] -> [] | l -> l
           in
           Ok
             {
               m_scheme; m_program; m_resolution; m_ndisks; m_windows;
               m_sim_end; m_horizon; m_fleet; m_dropped; m_samples = [];
             })
  in
  let row meta j =
    match meta with
    | None -> Error "sample before any meta line"
    | Some _ ->
        let* disk = int j "disk" in
        let* index = int j "i" in
        let* t0 = num j "t0" in
        let* t1 = num j "t1" in
        let* watts = num j "w" in
        Ok { disk; index; t0; t1; watts }
  in
  Json.read_sections ~header ~row ic
  |> Stdlib.Result.map
       (List.map (fun (meta, m_samples) ->
            { (Option.get meta) with m_samples }))
