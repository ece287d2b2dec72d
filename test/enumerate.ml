open Dpm_ir

type callbacks = {
  on_enter : nest:int -> depth:int -> var:string -> value:int -> unit;
  on_stmt : nest:int -> Stmt.t -> (string -> int) -> unit;
  on_call : nest:int -> Loop.pm_call -> (string -> int) -> unit;
}

let nothing =
  {
    on_enter = (fun ~nest:_ ~depth:_ ~var:_ ~value:_ -> ());
    on_stmt = (fun ~nest:_ _ _ -> ());
    on_call = (fun ~nest:_ _ _ -> ());
  }

let run_nest cb ~nest loop =
  let env_tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let env x =
    match Hashtbl.find_opt env_tbl x with
    | Some v -> v
    | None -> invalid_arg ("Enumerate: unbound iterator " ^ x)
  in
  let rec exec_loop depth (l : Loop.t) =
    let lo = Expr.eval env l.lo and hi = Expr.eval env l.hi in
    let v = ref lo in
    while !v <= hi do
      Hashtbl.replace env_tbl l.var !v;
      cb.on_enter ~nest ~depth ~var:l.var ~value:!v;
      List.iter (exec_node depth) l.body;
      v := !v + l.step
    done;
    Hashtbl.remove env_tbl l.var
  and exec_node depth = function
    | Loop.For l -> exec_loop (depth + 1) l
    | Loop.Stmt s -> cb.on_stmt ~nest s env
    | Loop.Call c -> cb.on_call ~nest c env
  in
  exec_loop 0 loop

let empty_env x = invalid_arg ("Enumerate: unbound iterator " ^ x)

let run cb (p : Program.t) =
  List.iteri
    (fun nest node ->
      match node with
      | Loop.For l -> run_nest cb ~nest l
      | Loop.Stmt s -> cb.on_stmt ~nest s empty_env
      | Loop.Call c -> cb.on_call ~nest c empty_env)
    p.body

let count_stmt_executions p =
  let n = ref 0 in
  run { nothing with on_stmt = (fun ~nest:_ _ _ -> incr n) } p;
  !n
