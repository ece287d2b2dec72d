type model = { clock_hz : float; cycles_per_ref : int; loop_overhead : int }

let default = { clock_hz = 750.0e6; cycles_per_ref = 6; loop_overhead = 4 }

let stmt_cycles model (s : Stmt.t) =
  s.work + (model.cycles_per_ref * List.length (Stmt.refs s))

(* Whether the cycle count of [node] can depend on iterator [var]: only
   loop bounds matter (subscripts do not change the cost). *)
let rec mentions_in_bounds var node =
  match node with
  | Loop.Stmt _ | Loop.Call _ -> false
  | Loop.For l ->
      List.mem var (Expr.vars l.lo)
      || List.mem var (Expr.vars l.hi)
      || List.exists (mentions_in_bounds var) l.body

let extend env var value x = if String.equal x var then value else env x

let rec body_cycles model env nodes =
  List.fold_left (fun acc node -> acc + node_cycles model env node) 0 nodes

and node_cycles model env = function
  | Loop.Stmt s -> stmt_cycles model s
  | Loop.Call _ -> 0
  | Loop.For l -> loop_cycles model env l

and loop_cycles model env (l : Loop.t) =
  let lo = Expr.eval env l.lo and hi = Expr.eval env l.hi in
  if hi < lo then 0
  else
    let trips = ((hi - lo) / l.step) + 1 in
    let invariant = not (List.exists (mentions_in_bounds l.var) l.body) in
    if invariant then
      let once = body_cycles model (extend env l.var lo) l.body in
      trips * (once + model.loop_overhead)
    else
      let total = ref 0 in
      let v = ref lo in
      while !v <= hi do
        total :=
          !total + body_cycles model (extend env l.var !v) l.body
          + model.loop_overhead;
        v := !v + l.step
      done;
      !total

let closed_env x = invalid_arg ("Cost: unbound iterator " ^ x)
let nest_cycles model l = loop_cycles model closed_env l

let seconds model cycles = float_of_int cycles /. model.clock_hz
let cycles_of_seconds model t = int_of_float (Float.round (t *. model.clock_hz))
