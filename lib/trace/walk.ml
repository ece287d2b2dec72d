module Ir = Dpm_ir
module Plan = Dpm_layout.Plan
module Lru = Dpm_cache.Lru

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

(* --- The lowered program --- *)

(* A reference, resolved once: its subscripts as evaluators over the
   iterator slots, a reused index vector they fill, and the plan's element
   rule to a global block (the cache key); the unit is the block less
   [base]. *)
type reference = {
  subscripts : (int array -> int) array;
  index : int array;
  block : int array -> int;
  base : int;
  array : string;
  kind : Request.kind;
  item : int;
}

type node =
  | Loop of {
      slot : int;
      lo : int array -> int;
      hi : int array -> int;
      step : int;
      body : node array;
    }
  | Stmt of { cycles : int; refs : reference array }
  | Call of Ir.Loop.pm_call

(* Iterators live in slots, one per loop depth, so the slot array holds
   exactly what [Enumerate]'s environment holds.  The binding rule is
   [Enumerate]'s: a loop binds its iterator on entry and unbinds it on
   exit, even when it shadowed an outer one, so a later read of that
   name raises — when it executes, as every lowering error does. *)
let lower ~cost plan (p : Ir.Program.t) =
  let depth = ref 0 in
  let lower_expr bound =
    Ir.Expr.lower ~slot:(fun x ->
        match List.assoc_opt x bound with
        | Some slot -> slot
        | None -> invalid_arg ("Enumerate: unbound iterator " ^ x))
  in
  let lower_ref bound ~item ~kind (r : Ir.Reference.t) =
    let subscripts = Array.of_list (List.map (lower_expr bound) r.indices) in
    let block, base =
      match Plan.element_block plan r.array with
      | block -> (block, Plan.unit_global_block plan r.array 0)
      | exception Not_found -> ((fun _ -> raise Not_found), 0)
    in
    {
      subscripts;
      index = Array.make (Array.length subscripts) 0;
      block;
      base;
      array = r.array;
      kind;
      item;
    }
  in
  (* Nodes in order, threading which iterators are bound after each. *)
  let rec lower_nodes bound ~item ~slot nodes =
    let _, lowered =
      List.fold_left
        (fun (bound, acc) node ->
          match node with
          | Ir.Loop.For l ->
              let lo = lower_expr bound l.lo and hi = lower_expr bound l.hi in
              depth := max !depth (slot + 1);
              let body =
                lower_nodes ((l.var, slot) :: bound) ~item ~slot:(slot + 1)
                  l.body
              in
              ( List.filter (fun (x, _) -> not (String.equal x l.var)) bound,
                Loop { slot; lo; hi; step = l.step; body } :: acc )
          | Ir.Loop.Stmt s ->
              let refs =
                List.map (lower_ref bound ~item ~kind:Request.Read) s.reads
                @ Option.to_list
                    (Option.map (lower_ref bound ~item ~kind:Request.Write) s.write)
              in
              ( bound,
                Stmt
                  {
                    cycles = Ir.Cost.stmt_cycles cost s;
                    refs = Array.of_list refs;
                  }
                :: acc )
          | Ir.Loop.Call c -> (bound, Call c :: acc))
        (bound, []) nodes
    in
    Array.of_list (List.rev lowered)
  in
  let top =
    Array.of_list
      (List.mapi
         (fun item node -> (lower_nodes [] ~item ~slot:0 [ node ]).(0))
         p.body)
  in
  (top, !depth)

let run ~cost ~cache_blocks ~iteration ~miss ~call (p : Ir.Program.t) plan =
  let items = items p in
  let top, depth = lower ~cost plan p in
  let cache = Lru.create ~capacity:cache_blocks ~keys:(Plan.blocks plan) in
  let slots = Array.make depth 0 in
  let loop_overhead = cost.Ir.Cost.loop_overhead in
  let cycles = ref 0 in
  let take () =
    let c = !cycles in
    cycles := 0;
    c
  in
  (* The last top-level loop's iterator, which a top-level statement
     reports. *)
  let last_iter = ref 0 in
  let touch r =
    let subscripts = r.subscripts and index = r.index in
    for k = 0 to Array.length subscripts - 1 do
      index.(k) <- subscripts.(k) slots
    done;
    let block = r.block index in
    if not (Lru.touch cache block) then
      miss ~cycles:(take ()) ~item:r.item ~array:r.array ~unit:(block - r.base)
        ~kind:r.kind
  in
  let rec exec = function
    | Loop l ->
        let lo = l.lo slots and hi = l.hi slots in
        let v = ref lo in
        while !v <= hi do
          slots.(l.slot) <- !v;
          cycles := !cycles + loop_overhead;
          exec_body l.body;
          v := !v + l.step
        done
    | Stmt s ->
        cycles := !cycles + s.cycles;
        let refs = s.refs in
        for k = 0 to Array.length refs - 1 do
          touch refs.(k)
        done
    | Call c -> call ~cycles:(take ()) c
  and exec_body body =
    for k = 0 to Array.length body - 1 do
      exec body.(k)
    done
  in
  Array.iteri
    (fun item node ->
      match node with
      | Loop l ->
          let { lo = origin; step; _ } = items.(item) in
          let lo = l.lo slots and hi = l.hi slots in
          let v = ref lo in
          while !v <= hi do
            slots.(0) <- !v;
            last_iter := !v;
            iteration ~cycles:(take ()) ~item
              ~ordinal:((!v - origin) / step)
              ~iter:!v;
            cycles := !cycles + loop_overhead;
            exec_body l.body;
            v := !v + l.step
          done
      | Stmt _ ->
          iteration ~cycles:(take ()) ~item ~ordinal:0 ~iter:!last_iter;
          exec node
      | Call _ -> exec node)
    top;
  take ()
