module Ir = Dpm_ir
module Layout = Dpm_layout

type t = {
  item : int;
  var : string;
  lo : int;
  step : int;
  iterations : int;
  per_disk : (int * int) list array;
  miss_counts : int array array;
}

let runs_of_bools flags =
  let runs = ref [] in
  let start = ref (-1) in
  Array.iteri
    (fun i b ->
      if b && !start < 0 then start := i
      else if (not b) && !start >= 0 then begin
        runs := (!start, i - 1) :: !runs;
        start := -1
      end)
    flags;
  if !start >= 0 then runs := (!start, Array.length flags - 1) :: !runs;
  List.rev !runs

let of_counts ~item ~var ~lo ~step counts =
  {
    item;
    var;
    lo;
    step;
    iterations = Array.length counts.(0);
    per_disk =
      Array.map (fun cs -> runs_of_bools (Array.map (fun c -> c > 0) cs)) counts;
    miss_counts = counts;
  }

let of_program_cached
    ?(cache_blocks = Dpm_trace.Generate.default_config.cache_blocks)
    (p : Ir.Program.t) plan =
  let ndisks = Layout.Plan.ndisks plan in
  let items = Dpm_trace.Walk.items p in
  let counts =
    Array.map
      (fun (i : Dpm_trace.Walk.item) -> Array.make_matrix ndisks i.slots 0)
      items
  in
  let ord = ref 0 in
  let (_ : int) =
    Dpm_trace.Walk.run ~cost:Ir.Cost.default ~cache_blocks
      ~iteration:(fun ~cycles:_ ~item:_ ~ordinal ~iter:_ -> ord := ordinal)
      ~miss:(fun ~cycles:_ ~item ~array ~unit ~kind:_ ->
        let c = counts.(item).(Layout.Plan.unit_disk plan array unit) in
        c.(!ord) <- c.(!ord) + 1)
      ~call:(fun ~cycles:_ _ -> ())
      p plan
  in
  List.init (Array.length items) (fun item ->
      let { Dpm_trace.Walk.var; lo; step; slots = _ } = items.(item) in
      of_counts ~item ~var ~lo ~step counts.(item))

let window_requests t ~disk ~lo ~hi =
  let cs = t.miss_counts.(disk) in
  let n = Array.length cs in
  let total = ref 0 in
  for o = max 0 lo to min (n - 1) hi do
    total := !total + cs.(o)
  done;
  !total

let value_of_ordinal t ord = t.lo + (ord * t.step)
