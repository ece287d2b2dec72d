module Ir = Dpm_ir
module Layout = Dpm_layout

(* The innermost perfect 2-deep pair of a singleton loop chain: descends
   through outer loops whose body is exactly one loop (e.g. a time loop
   around the computational pair) and returns the two innermost levels
   when the inner body is statements only and bounds are constant in the
   enclosing iterators. *)
let rec perfect_2deep (l : Ir.Loop.t) =
  let stmts_only body =
    List.for_all
      (function
        | Ir.Loop.Stmt _ -> true
        | Ir.Loop.For _ | Ir.Loop.Call _ -> false)
      body
  in
  let const e =
    match Ir.Expr.simplify e with Ir.Expr.Const _ -> true | _ -> false
  in
  match l.body with
  | [ Ir.Loop.For inner ] when stmts_only inner.body ->
      if const l.lo && const l.hi && const inner.lo && const inner.hi
         && l.step = 1 && inner.step = 1
      then Some inner
      else None
  | [ Ir.Loop.For inner ] -> perfect_2deep inner
  | _ -> None

let nest_bytes (p : Ir.Program.t) (l : Ir.Loop.t) =
  (* Bytes of data the nest's references span: per referenced array, the
     whole array counts once (the nests in the suite sweep their arrays);
     weighted by the number of references to it, approximating traffic. *)
  let stmts = Ir.Loop.stmts l in
  List.fold_left
    (fun acc s ->
      List.fold_left
        (fun acc (r : Ir.Reference.t) ->
          acc + Ir.Array_decl.size_bytes (Ir.Program.find_array p r.array))
        acc (Ir.Stmt.refs s))
    0 stmts

let candidate (p : Ir.Program.t) _plan =
  let best = ref None in
  List.iteri
    (fun item node ->
      match node with
      | Ir.Loop.For l when perfect_2deep l <> None && Ir.Depend.tiling_legal l
        ->
          let cost = nest_bytes p l in
          let better =
            match !best with None -> true | Some (_, c) -> cost > c
          in
          if better then best := Some (item, cost)
      | Ir.Loop.For _ | Ir.Loop.Stmt _ | Ir.Loop.Call _ -> ())
    p.body;
  Option.map fst !best

let tile_sizes (p : Ir.Program.t) ~stripe_size (l : Ir.Loop.t) =
  let max_elem =
    List.fold_left
      (fun acc name ->
        max acc (Ir.Program.find_array p name).Ir.Array_decl.elem_size)
      1 (Ir.Loop.arrays l)
  in
  let elems = max 1 (stripe_size / max_elem) in
  let t1 = max 1 (int_of_float (sqrt (float_of_int elems))) in
  let t2 = max 1 (elems / t1) in
  (t1, t2)

let rec tile_nest ~t1 ~t2 (l : Ir.Loop.t) =
  (* Descend to the tile site through singleton outer loops. *)
  match l.body with
  | [ Ir.Loop.For inner ] when
      (match inner.body with [ Ir.Loop.For _ ] -> true | _ -> false) ->
      { l with body = [ Ir.Loop.For (tile_nest ~t1 ~t2 inner) ] }
  | _ ->
  match perfect_2deep l with
  | None ->
      invalid_arg "Tiling.tile_nest: not a perfect 2-deep constant nest"
  | Some inner ->
      if t1 <= 0 || t2 <= 0 then invalid_arg "Tiling.tile_nest: bad tile size";
      let iv = l.var and jv = inner.var in
      let ii = iv ^ iv (* "ii" for "i" *) and jj = jv ^ jv in
      let elem_i =
        {
          Ir.Loop.var = iv;
          lo = Ir.Expr.Var ii;
          hi =
            Ir.Expr.Min
              (Ir.Expr.Add (Ir.Expr.Var ii, Ir.Expr.Const (t1 - 1)), l.hi);
          step = 1;
          body =
            [
              Ir.Loop.For
                {
                  Ir.Loop.var = jv;
                  lo = Ir.Expr.Var jj;
                  hi =
                    Ir.Expr.Min
                      ( Ir.Expr.Add (Ir.Expr.Var jj, Ir.Expr.Const (t2 - 1)),
                        inner.hi );
                  step = 1;
                  body = inner.body;
                };
            ];
        }
      in
      {
        Ir.Loop.var = ii;
        lo = l.lo;
        hi = l.hi;
        step = t1;
        body =
          [
            Ir.Loop.For
              {
                Ir.Loop.var = jj;
                lo = inner.lo;
                hi = inner.hi;
                step = t2;
                body = [ Ir.Loop.For elem_i ];
              };
          ];
      }

let conforming_order (l : Ir.Loop.t) name =
  match perfect_2deep l with
  | None -> None
  | Some inner ->
      let jv = inner.var in
      let refs =
        List.concat_map Ir.Stmt.refs (Ir.Loop.stmts l)
        |> List.filter (fun (r : Ir.Reference.t) -> String.equal r.array name)
      in
      let dim_of_j (r : Ir.Reference.t) =
        match r.indices with
        | [ d0; d1 ] ->
            let in0 = List.mem jv (Ir.Expr.vars d0) in
            let in1 = List.mem jv (Ir.Expr.vars d1) in
            if in1 && not in0 then Some `Last
            else if in0 && not in1 then Some `First
            else None
        | _ -> None
      in
      let dims = List.map dim_of_j refs in
      if dims = [] then None
      else if List.for_all (fun d -> d = Some `Last) dims then
        Some Layout.Plan.Row_major
      else if List.for_all (fun d -> d = Some `First) dims then
        Some Layout.Plan.Col_major
      else None

(* Candidates in decreasing cost order. *)
let candidates (p : Ir.Program.t) =
  let all = ref [] in
  List.iteri
    (fun item node ->
      match node with
      | Ir.Loop.For l when perfect_2deep l <> None && Ir.Depend.tiling_legal l
        ->
          all := (item, nest_bytes p l) :: !all
      | Ir.Loop.For _ | Ir.Loop.Stmt _ | Ir.Loop.Call _ -> ())
    p.body;
  List.map fst (List.sort (fun (_, a) (_, b) -> compare b a) !all)

let tile_item ~dl (p : Ir.Program.t) plan ~item ~planned =
  match List.nth p.Ir.Program.body item with
  | Ir.Loop.Stmt _ | Ir.Loop.Call _ -> (p, plan)
  | Ir.Loop.For l ->
      let default_ss = Layout.Striping.default.Layout.Striping.stripe_size in
      let t1, t2 = tile_sizes p ~stripe_size:default_ss l in
      let tiled = tile_nest ~t1 ~t2 l in
      let body =
        List.mapi
          (fun i node -> if i = item then Ir.Loop.For tiled else node)
          p.Ir.Program.body
      in
      let p' = Ir.Program.with_body p body in
      if not dl then (p', plan)
      else
        let plan' =
          List.fold_left
            (fun plan name ->
              if Hashtbl.mem planned name then plan
              else begin
                Hashtbl.add planned name ();
                let decl = Ir.Program.find_array p name in
                let entry = Layout.Plan.entry plan name in
                let ds = t1 * t2 * decl.Ir.Array_decl.elem_size in
                let striping =
                  Layout.Striping.make
                    ~start_disk:
                      entry.Layout.Plan.striping.Layout.Striping.start_disk
                    ~stripe_factor:
                      entry.Layout.Plan.striping.Layout.Striping.stripe_factor
                    ~stripe_size:(max 4096 ds)
                in
                let plan = Layout.Plan.set_striping plan name striping in
                match conforming_order l name with
                | Some order -> Layout.Plan.set_order plan name order
                | None -> plan
              end)
            plan (Ir.Loop.arrays l)
        in
        (p', plan')

let apply_all ~dl (p : Ir.Program.t) plan =
  let planned = Hashtbl.create 16 in
  List.fold_left
    (fun (p, plan) item -> tile_item ~dl p plan ~item ~planned)
    (p, plan) (candidates p)

let apply ~dl (p : Ir.Program.t) plan =
  match candidate p plan with
  | None -> (p, plan)
  | Some item -> tile_item ~dl p plan ~item ~planned:(Hashtbl.create 16)
