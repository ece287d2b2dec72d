module Ir = Dpm_ir
module Plan = Dpm_layout.Plan

type item = { var : string; lo : int; step : int; slots : int }

let closed x = invalid_arg ("Walk: unbound iterator " ^ x)

let items (p : Ir.Program.t) =
  Array.of_list
    (List.map
       (function
         | Ir.Loop.For l ->
             let lo = Ir.Expr.eval closed l.lo and hi = Ir.Expr.eval closed l.hi in
             let trips = if hi < lo then 0 else ((hi - lo) / l.step) + 1 in
             { var = l.var; lo; step = l.step; slots = max trips 1 }
         | Ir.Loop.Stmt _ | Ir.Loop.Call _ ->
             { var = "<item>"; lo = 0; step = 1; slots = 1 })
       p.body)

let run ~cost ~cache_blocks ~iteration ~miss ~call (p : Ir.Program.t) plan =
  let items = items p in
  let cache = Dpm_cache.Lru.create ~capacity:cache_blocks in
  let cycles = ref 0 in
  let take () =
    let c = !cycles in
    cycles := 0;
    c
  in
  (* -1 so that a statement at item 0 still opens its slot. *)
  let cur_item = ref (-1) and cur_iter = ref 0 in
  let touch ~item ~kind (r : Ir.Reference.t) env =
    let u = Plan.element_unit plan r.array (Ir.Reference.eval env r) in
    match Dpm_cache.Lru.access cache (r.array, u) with
    | `Hit -> ()
    | `Miss _ -> miss ~cycles:(take ()) ~item ~array:r.array ~unit:u ~kind
  in
  Ir.Enumerate.run
    {
      on_enter =
        (fun ~nest ~depth ~var:_ ~value ->
          if depth = 0 then begin
            let { lo; step; _ } = items.(nest) in
            cur_item := nest;
            cur_iter := value;
            iteration ~cycles:(take ()) ~item:nest
              ~ordinal:((value - lo) / step) ~iter:value
          end;
          cycles := !cycles + cost.Ir.Cost.loop_overhead);
      on_stmt =
        (fun ~nest s env ->
          if nest <> !cur_item then begin
            (* A top-level statement: its own single slot. *)
            cur_item := nest;
            iteration ~cycles:(take ()) ~item:nest ~ordinal:0 ~iter:!cur_iter
          end;
          cycles := !cycles + Ir.Cost.stmt_cycles cost s;
          List.iter (fun r -> touch ~item:nest ~kind:Request.Read r env) s.reads;
          Option.iter (fun w -> touch ~item:nest ~kind:Request.Write w env) s.write);
      on_call = (fun ~nest:_ c _ -> call ~cycles:(take ()) c);
    }
    p;
  take ()
