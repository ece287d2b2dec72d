module Ir = Dpm_ir
module Layout = Dpm_layout

type t = {
  durations : float array array;
  starts : float array array;
  total : float;
}

let rebuild_starts durations =
  let clock = ref 0.0 in
  let starts =
    Array.map
      (fun per_item ->
        Array.map
          (fun d ->
            let s = !clock in
            clock := !clock +. d;
            s)
          per_item)
      durations
  in
  (starts, !clock)

(* A fold over a walk's log.  Cycles become seconds when a slot closes
   (each top-level iteration start and the end) and before each miss
   adds its full-speed service time; a call only accumulates. *)
let of_log ~specs log =
  let cost = Dpm_trace.Walk.cost log and plan = Dpm_trace.Walk.plan log in
  let durations =
    Array.map
      (fun (i : Dpm_trace.Walk.item) -> Array.make i.slots 0.0)
      (Dpm_trace.Walk.items (Dpm_trace.Walk.program log))
  in
  let top = Dpm_disk.Rpm.max_level specs in
  let clock = ref 0.0 and pending = ref 0 in
  (* Slot currently accumulating time. *)
  let cur_item = ref 0 and cur_ord = ref 0 and slot_start = ref 0.0 in
  let flush cycles =
    clock := !clock +. Ir.Cost.seconds cost (!pending + cycles);
    pending := 0
  in
  let close_slot cycles =
    flush cycles;
    durations.(!cur_item).(!cur_ord) <-
      durations.(!cur_item).(!cur_ord) +. (!clock -. !slot_start);
    slot_start := !clock
  in
  let tail =
    Dpm_trace.Walk.iter log
      ~iteration:(fun ~cycles ~item ~ordinal ~iter:_ ->
        close_slot cycles;
        cur_item := item;
        cur_ord := ordinal)
      ~miss:(fun ~cycles ~item:_ ~array ~unit ~kind:_ ->
        flush cycles;
        clock :=
          !clock
          +. Dpm_disk.Service.request_time specs ~level:top
               ~bytes:(Layout.Plan.unit_bytes plan array unit))
      ~call:(fun ~cycles _ -> pending := !pending + cycles)
  in
  close_slot tail;
  let starts, total = rebuild_starts durations in
  { durations; starts; total }

let profile ?(cache_blocks = Dpm_trace.Generate.default_config.cache_blocks)
    ~specs (p : Ir.Program.t) plan =
  of_log ~specs (Dpm_trace.Walk.log ~cost:Ir.Cost.default ~cache_blocks p plan)

let perturb ~noise ~seed t =
  if noise < 0.0 then invalid_arg "Estimate.perturb: negative noise";
  let rng = Dpm_util.Rng.create seed in
  let durations =
    Array.map
      (fun per_item ->
        let bias = 1.0 +. Dpm_util.Rng.symmetric rng noise in
        Array.map
          (fun d ->
            let jitter = 1.0 +. Dpm_util.Rng.symmetric rng (noise /. 4.0) in
            d *. bias *. jitter)
          per_item)
      t.durations
  in
  let starts, total = rebuild_starts durations in
  { durations; starts; total }

let iteration_start t ~item ~ordinal = t.starts.(item).(ordinal)

let iteration_end t ~item ~ordinal =
  t.starts.(item).(ordinal) +. t.durations.(item).(ordinal)

let locate t time =
  let nitems = Array.length t.starts in
  (* Find the last (item, ordinal) whose start <= time. *)
  let result = ref (0, 0) in
  (try
     for i = 0 to nitems - 1 do
       let per_item = t.starts.(i) in
       for o = 0 to Array.length per_item - 1 do
         if per_item.(o) <= time then result := (i, o) else raise Exit
       done
     done
   with Exit -> ());
  !result
