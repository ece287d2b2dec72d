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

(* Disks an item body may touch with the given iterator ranges in scope.
   Inner loop ranges are derived by interval analysis of their bounds. *)
let body_disks plan ranges nodes mark =
  let range x =
    match Hashtbl.find_opt ranges x with
    | Some r -> r
    | None -> invalid_arg ("Access: unbound iterator " ^ x)
  in
  let rec walk = function
    | Ir.Loop.Call _ -> ()
    | Ir.Loop.Stmt s ->
        List.iter
          (fun (r : Ir.Reference.t) ->
            let region = Ir.Reference.region range r in
            List.iter mark (Layout.Plan.region_disks plan r.array region))
          (Ir.Stmt.refs s)
    | Ir.Loop.For l ->
        let llo = Ir.Expr.bounds range l.lo in
        let lhi = Ir.Expr.bounds range l.hi in
        let lo = fst llo and hi = snd lhi in
        if hi >= lo then begin
          Hashtbl.add ranges l.var (lo, hi);
          List.iter walk l.body;
          Hashtbl.remove ranges l.var
        end
  in
  List.iter walk nodes

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

let of_program (p : Ir.Program.t) plan =
  let closed x = invalid_arg ("Access: unbound iterator " ^ x) in
  let ndisks = Layout.Plan.ndisks plan in
  List.mapi
    (fun item node ->
      let ranges = Hashtbl.create 8 in
      match node with
      | Ir.Loop.For l ->
          let lo = Ir.Expr.eval closed l.lo and hi = Ir.Expr.eval closed l.hi in
          let trips = if hi < lo then 0 else ((hi - lo) / l.step) + 1 in
          let counts = Array.make_matrix ndisks trips 0 in
          for ord = 0 to trips - 1 do
            let v = lo + (ord * l.step) in
            Hashtbl.replace ranges l.var (v, v);
            body_disks plan ranges l.body (fun d -> counts.(d).(ord) <- 1)
          done;
          of_counts ~item ~var:l.var ~lo ~step:l.step counts
      | Ir.Loop.Stmt _ | Ir.Loop.Call _ ->
          let counts = Array.make_matrix ndisks 1 0 in
          body_disks plan ranges [ node ] (fun d -> counts.(d).(0) <- 1);
          of_counts ~item ~var:(Printf.sprintf "<item%d>" item) ~lo:0 ~step:1
            counts)
    p.body

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
