type t = { name : string; arrays : Array_decl.t list; body : Loop.node list }

let validate t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (a : Array_decl.t) ->
      if Hashtbl.mem tbl a.name then
        invalid_arg ("Program: duplicate array " ^ a.name);
      Hashtbl.add tbl a.name a)
    t.arrays;
  let check_ref bound (r : Reference.t) =
    match Hashtbl.find_opt tbl r.array with
    | None -> invalid_arg ("Program: undeclared array " ^ r.array)
    | Some decl ->
        if List.length r.indices <> Array_decl.rank decl then
          invalid_arg ("Program: rank mismatch for " ^ r.array);
        List.iter
          (fun e ->
            List.iter
              (fun v ->
                if not (List.mem v bound) then
                  invalid_arg ("Program: unbound iterator " ^ v))
              (Expr.vars e))
          r.indices
  in
  let check_expr bound e =
    List.iter
      (fun v ->
        if not (List.mem v bound) then
          invalid_arg ("Program: unbound iterator " ^ v ^ " in loop bound"))
      (Expr.vars e)
  in
  let rec check_node bound = function
    | Loop.For l ->
        check_expr bound l.lo;
        check_expr bound l.hi;
        List.iter (check_node (l.var :: bound)) l.body
    | Loop.Stmt s -> List.iter (check_ref bound) (Stmt.refs s)
    | Loop.Call _ -> ()
  in
  List.iter (check_node []) t.body;
  t

let make ~name ~arrays ~body = validate { name; arrays; body }

let find_array t name =
  List.find (fun (a : Array_decl.t) -> String.equal a.name name) t.arrays

let total_data_bytes t =
  List.fold_left (fun acc a -> acc + Array_decl.size_bytes a) 0 t.arrays

let nests t =
  List.filteri (fun _ _ -> true) t.body
  |> List.mapi (fun i node -> (i, node))
  |> List.filter_map (fun (i, node) ->
         match node with
         | Loop.For l -> Some (i, l)
         | Loop.Stmt _ | Loop.Call _ -> None)

let item_count t = List.length t.body

let with_body t body = validate { t with body }

let stmts t =
  List.concat_map
    (function
      | Loop.For l -> Loop.stmts l
      | Loop.Stmt s -> [ s ]
      | Loop.Call _ -> [])
    t.body

let pp ppf t =
  Format.fprintf ppf "program %s: %d arrays (%a), %d items" t.name
    (List.length t.arrays) Dpm_util.Units.pp_bytes (total_data_bytes t)
    (List.length t.body)
