(* Tests for Dpm_ir: expressions, declarations, loops, parsing, printing,
   cost model, enumeration, dependences. *)

module Expr = Dpm_ir.Expr
module Array_decl = Dpm_ir.Array_decl
module Reference = Dpm_ir.Reference
module Stmt = Dpm_ir.Stmt
module Loop = Dpm_ir.Loop
module Program = Dpm_ir.Program
module Parser = Dpm_ir.Parser
module Printer = Dpm_ir.Printer
module Cost = Dpm_ir.Cost
module Depend = Dpm_ir.Depend

let env_of l x = List.assoc x l

(* --- Expr --- *)

let test_expr_eval () =
  let e = Expr.(Add (Mul (3, Var "i"), Const 2)) in
  Alcotest.(check int) "3i+2 at i=4" 14 (Expr.eval (env_of [ ("i", 4) ]) e);
  let e2 = Expr.(Div (Var "i", 4)) in
  Alcotest.(check int) "floor div" 2 (Expr.eval (env_of [ ("i", 11) ]) e2);
  Alcotest.(check int) "floor div negative" (-3)
    (Expr.eval (env_of [ ("i", -11) ]) e2)

let test_expr_eval_unbound () =
  Alcotest.check_raises "unbound"
    (Invalid_argument "Expr.eval: unbound iterator j") (fun () ->
      ignore (Expr.eval (env_of []) (Expr.Var "j")))

let test_expr_minmax () =
  let e = Expr.(Min (Var "i", Const 5)) in
  Alcotest.(check int) "min" 3 (Expr.eval (env_of [ ("i", 3) ]) e);
  Alcotest.(check int) "min clamps" 5 (Expr.eval (env_of [ ("i", 9) ]) e);
  let e2 = Expr.(Max (Var "i", Const 0)) in
  Alcotest.(check int) "max" 0 (Expr.eval (env_of [ ("i", -2) ]) e2)

let test_expr_simplify () =
  let e = Expr.(Add (Const 0, Mul (1, Var "x"))) in
  Alcotest.(check bool) "neutral elems" true (Expr.simplify e = Expr.Var "x");
  let e2 = Expr.(Mul (0, Var "x")) in
  Alcotest.(check bool) "zero mul" true (Expr.simplify e2 = Expr.Const 0)

let test_expr_subst_shift () =
  let e = Expr.(Add (Var "i", Const 1)) in
  let shifted = Expr.shift "i" 3 e in
  Alcotest.(check int) "shift" 9 (Expr.eval (env_of [ ("i", 5) ]) shifted);
  let substd = Expr.subst "i" (Expr.Const 7) e in
  Alcotest.(check int) "subst" 8 (Expr.eval (env_of []) substd)

let test_expr_vars () =
  let e = Expr.(Add (Var "j", Mul (2, Var "i"))) in
  Alcotest.(check (list string)) "vars sorted" [ "i"; "j" ] (Expr.vars e)

(* qcheck: generator for random expressions over i, j *)

let expr_gen =
  let open QCheck2.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun c -> Expr.Const c) (int_range (-20) 20);
                oneofl [ Expr.Var "i"; Expr.Var "j" ];
              ]
          else
            oneof
              [
                map (fun c -> Expr.Const c) (int_range (-20) 20);
                oneofl [ Expr.Var "i"; Expr.Var "j" ];
                map2 (fun a b -> Expr.Add (a, b)) (self (n / 2)) (self (n / 2));
                map2 (fun a b -> Expr.Sub (a, b)) (self (n / 2)) (self (n / 2));
                map2
                  (fun k a -> Expr.Mul (k, a))
                  (int_range (-4) 4) (self (n - 1));
                map2 (fun a b -> Expr.Min (a, b)) (self (n / 2)) (self (n / 2));
                map2 (fun a b -> Expr.Max (a, b)) (self (n / 2)) (self (n / 2));
                map (fun a -> Expr.Div (a, 3)) (self (n - 1));
              ])
        (min n 6))

let qcheck_simplify_preserves_eval =
  QCheck2.Test.make ~count:500 ~name:"expr: simplify preserves evaluation"
    QCheck2.Gen.(triple expr_gen (int_range 0 9) (int_range 0 9))
    (fun (e, i, j) ->
      let env = env_of [ ("i", i); ("j", j) ] in
      Expr.eval env e = Expr.eval env (Expr.simplify e))

let qcheck_printer_parser_roundtrip_expr =
  QCheck2.Test.make ~count:500 ~name:"expr: print/parse round-trip"
    QCheck2.Gen.(triple expr_gen (int_range 0 9) (int_range 0 9))
    (fun (e, i, j) ->
      let env = env_of [ ("i", i); ("j", j) ] in
      let reparsed = Parser.expr (Printer.expr e) in
      Expr.eval env reparsed = Expr.eval env e)

(* --- Lexer --- *)

let test_lexer_comments_and_keywords () =
  let toks = Dpm_ir.Lexer.tokenize "# a comment\nfor i # tail\n= 0" in
  Alcotest.(check int) "comment stripped" 5 (List.length toks);
  (* set_RPM is accepted as an alias of set_rpm. *)
  match Dpm_ir.Lexer.tokenize "set_RPM" with
  | [ (Dpm_ir.Lexer.KW_SET_RPM, _); (Dpm_ir.Lexer.EOF, _) ] -> ()
  | _ -> Alcotest.fail "set_RPM alias"

let test_lexer_error_carries_line () =
  try
    ignore (Dpm_ir.Lexer.tokenize "for i\n= ?");
    Alcotest.fail "expected lexer error"
  with Dpm_ir.Lexer.Error { line; _ } -> Alcotest.(check int) "line" 2 line

let test_lexer_describe_total () =
  (* Every token constructor renders. *)
  List.iter
    (fun t ->
      Alcotest.(check bool) "non-empty" true
        (String.length (Dpm_ir.Lexer.describe t) > 0))
    Dpm_ir.Lexer.
      [
        IDENT "x"; INT 3; KW_ARRAY; KW_FOR; KW_TO; KW_STEP; KW_WORK; KW_USE;
        KW_SPIN_DOWN; KW_SPIN_UP; KW_SET_RPM; KW_MIN; KW_MAX; LBRACKET;
        RBRACKET; LBRACE; RBRACE; LPAREN; RPAREN; EQUALS; PLUS; MINUS; STAR;
        SLASH; COMMA; COLON; SEMI; EOF;
      ]

(* --- Printer corner cases --- *)

let test_printer_step_and_calls () =
  let p =
    Parser.program ~name:"t"
      {|
array A[64] : 8
for i = 0 to 63 step 4 { spin_down(2) use A[i] spin_up(2) }
|}
  in
  let printed = Printer.program p in
  let p2 = Parser.program ~name:"t" (printed) in
  Alcotest.(check string) "round trip with step and calls" printed
    (Printer.program p2);
  Alcotest.(check int) "16 iterations"
    (Enumerate.count_stmt_executions p)
    (Enumerate.count_stmt_executions p2)

let test_printer_negative_bounds () =
  let src = {|
array A[8] : 8
for i = 0 to 3 { use A[i + 2 - 1] }
|} in
  let p = Parser.program ~name:"t" src in
  let p2 = Parser.program ~name:"t" (Printer.program p) in
  Alcotest.(check int) "same executions"
    (Enumerate.count_stmt_executions p)
    (Enumerate.count_stmt_executions p2)

(* --- Array_decl --- *)

let test_decl_basics () =
  let a = Array_decl.make ~name:"A" ~dims:[ 4; 8 ] ~elem_size:8192 in
  Alcotest.(check int) "rank" 2 (Array_decl.rank a);
  Alcotest.(check int) "elements" 32 (Array_decl.elements a);
  Alcotest.(check int) "bytes" (32 * 8192) (Array_decl.size_bytes a)

let test_decl_linearize () =
  let a = Array_decl.make ~name:"A" ~dims:[ 4; 8 ] ~elem_size:1 in
  Alcotest.(check int) "row major" ((2 * 8) + 5) (Array_decl.linearize a [ 2; 5 ]);
  Alcotest.(check int) "col major" ((5 * 4) + 2)
    (Array_decl.linearize_colmajor a [ 2; 5 ])

let test_decl_validation () =
  Alcotest.check_raises "bad extent"
    (Invalid_argument "Array_decl.make: non-positive extent") (fun () ->
      ignore (Array_decl.make ~name:"A" ~dims:[ 0 ] ~elem_size:1));
  let a = Array_decl.make ~name:"A" ~dims:[ 4 ] ~elem_size:1 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Array_decl: index 4 out of range [0,4) for A")
    (fun () -> ignore (Array_decl.linearize a [ 4 ]))

let qcheck_linearize_row_major =
  QCheck2.Test.make ~count:300 ~name:"array: row-major linearize formula"
    QCheck2.Gen.(
      quad (int_range 1 6) (int_range 1 6) (int_range 0 5) (int_range 0 5))
    (fun (d0, d1, i0, i1) ->
      QCheck2.assume (i0 < d0 && i1 < d1);
      let a = Array_decl.make ~name:"A" ~dims:[ d0; d1 ] ~elem_size:1 in
      let l = Array_decl.linearize a [ i0; i1 ] in
      l = (i0 * d1) + i1 && l < Array_decl.elements a)

(* --- Loop / Program --- *)

let small_program () =
  Parser.program ~name:"t"
    {|
array A[4][8] : 64
array B[4][8] : 64
for i = 0 to 3 {
  for j = 0 to 7 { A[i][j] = B[i][j] work 5 }
}
for i = 0 to 3 { use A[i][0] work 2 }
|}

let test_loop_accessors () =
  let p = small_program () in
  match p.Program.body with
  | [ Loop.For l1; Loop.For l2 ] ->
      Alcotest.(check int) "depth" 2 (Loop.depth l1);
      Alcotest.(check int) "stmts" 1 (List.length (Loop.stmts l1));
      Alcotest.(check (list string)) "arrays" [ "A"; "B" ] (Loop.arrays l1);
      Alcotest.(check (list string)) "iterators" [ "i"; "j" ]
        (Loop.iterators l1);
      Alcotest.(check int) "trip" 4
        (Loop.trip_count (fun _ -> raise Not_found) l2)
  | _ -> Alcotest.fail "expected two nests"

let test_program_validation () =
  let bad () =
    ignore
      (Parser.program ~name:"t"
         {|
array A[4] : 8
for i = 0 to 3 { use B[i] }
|})
  in
  Alcotest.check_raises "undeclared array"
    (Invalid_argument "Program: undeclared array B") bad;
  let bad_rank () =
    ignore
      (Parser.program ~name:"t"
         {|
array A[4] : 8
for i = 0 to 3 { use A[i][i] }
|})
  in
  Alcotest.check_raises "rank" (Invalid_argument "Program: rank mismatch for A")
    bad_rank;
  let unbound () =
    ignore
      (Parser.program ~name:"t"
         {|
array A[9] : 8
for i = 0 to 3 { use A[k] }
|})
  in
  Alcotest.check_raises "unbound"
    (Invalid_argument "Program: unbound iterator k") unbound

let test_parser_errors () =
  (try
     ignore (Parser.program ~name:"t" "for = 0 to");
     Alcotest.fail "expected parse error"
   with Parser.Error _ -> ());
  try
    ignore
      (Parser.program ~name:"t"
         "array A[2] : 8\nfor i = 0 to 1 { use A[i*i] }");
    Alcotest.fail "expected non-affine error"
  with Parser.Error { message; _ } ->
    Alcotest.(check bool) "non-affine product" true (String.length message > 0)

let test_parser_pm_calls () =
  let p =
    Parser.program ~name:"t"
      {|
array A[4] : 8
spin_down(1)
for i = 0 to 3 { set_rpm(3, 0) use A[i] }
spin_up(1)
|}
  in
  Alcotest.(check int) "items" 3 (Program.item_count p);
  match p.Program.body with
  | [ Loop.Call (Loop.Spin_down 1); Loop.For l; Loop.Call (Loop.Spin_up 1) ] ->
      Alcotest.(check int) "inner calls" 1 (List.length (Loop.calls l))
  | _ -> Alcotest.fail "unexpected shape"

let test_printer_roundtrip_program () =
  let p = small_program () in
  let p2 = Parser.program ~name:"t" (Printer.program p) in
  Alcotest.(check int) "same dynamic statements"
    (Enumerate.count_stmt_executions p)
    (Enumerate.count_stmt_executions p2);
  Alcotest.(check string) "stable print" (Printer.program p) (Printer.program p2)

(* --- Cost --- *)

(* The edge programs of [trace.walk › edge programs] that run to
   completion: triangular and [Min]/[Max]/[Div] bounds, column-major
   arrays, top-level statements and calls, zero-trip loops. *)
let completing_edge_programs () =
  List.filter_map
    (fun ((p : Program.t), _) ->
      if
        List.mem p.name
          [
            "triangular"; "colmajor"; "toplevel"; "zerotrip";
            "missing-unexecuted";
          ]
      then Some (p.name, p)
      else None)
    Test_trace.walk_edge_programs

let test_cost_closed_form_matches_enumeration () =
  let work_only = { Cost.default with cycles_per_ref = 0; loop_overhead = 0 } in
  let programs =
    (("small", small_program ())
    :: List.map
         (fun (s : Dpm_workloads.Suite.spec) ->
           (s.name, Dpm_workloads.Suite.program s))
         Dpm_workloads.Suite.all)
    @ completing_edge_programs ()
  in
  List.iter
    (fun (label, p) ->
      List.iter
        (fun (mlabel, (model : Cost.model)) ->
          let total = ref 0 in
          let cb =
            {
              Enumerate.nothing with
              Enumerate.on_stmt =
                (fun ~nest:_ s _ -> total := !total + Cost.stmt_cycles model s);
              on_enter =
                (fun ~nest:_ ~depth:_ ~var:_ ~value:_ ->
                  total := !total + model.loop_overhead);
            }
          in
          Enumerate.run cb p;
          Alcotest.(check int)
            (Printf.sprintf "%s, %s model: closed form = enumeration" label
               mlabel)
            !total
            (Cost.program_cycles model p))
        [ ("default", Cost.default); ("work-only", work_only) ])
    programs

let test_cost_triangular () =
  (* for i = 0..3 { for j = 0..i { s } }: 10 executions of s. *)
  let s =
    Stmt.make ~label:"s" ~work:10 [ Reference.make "A" [ Expr.Var "j" ] ]
  in
  let inner = Loop.for_ "j" (Expr.Const 0) (Expr.Var "i") [ Loop.Stmt s ] in
  let nest = Loop.for_ "i" (Expr.Const 0) (Expr.Const 3) [ Loop.For inner ] in
  let model = Cost.default in
  let expected =
    (10 * (10 + model.cycles_per_ref))
    + (10 * model.loop_overhead)
    + (4 * model.loop_overhead)
  in
  Alcotest.(check int) "triangular nest" expected (Cost.nest_cycles model nest)

let test_cost_seconds () =
  let model = Cost.default in
  Alcotest.(check (float 1e-9)) "cycles to seconds" 1.0
    (Cost.seconds model (Cost.cycles_of_seconds model 1.0))

(* --- Enumerate --- *)

let test_enumerate_order_and_count () =
  let p = small_program () in
  Alcotest.(check int) "dynamic stmts" 36 (Enumerate.count_stmt_executions p);
  let seen = ref [] in
  let cb =
    {
      Enumerate.nothing with
      Enumerate.on_stmt =
        (fun ~nest s env ->
          ignore s;
          if nest = 0 then seen := (env "i", env "j") :: !seen);
    }
  in
  Enumerate.run cb p;
  let expected =
    List.concat_map (fun i -> List.init 8 (fun j -> (i, j))) [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "nest0 iterations" 32 (List.length !seen);
  Alcotest.(check bool) "lexicographic order" true (List.rev !seen = expected)

(* --- Depend --- *)

let test_depend_normal_form () =
  (match Depend.normal_form Expr.(Add (Mul (2, Var "i"), Const 3)) with
  | Some ([ ("i", 2) ], 3) -> ()
  | _ -> Alcotest.fail "normal form");
  Alcotest.(check bool) "div is not affine" true
    (Depend.normal_form Expr.(Div (Var "i", 2)) = None)

let test_depend_ref_distance () =
  let r1 = Reference.make "A" [ Expr.Var "i" ] in
  let r2 = Reference.make "A" [ Expr.(Add (Var "i", Const 2)) ] in
  (match Depend.ref_distance r1 r2 with
  | Some (Depend.Exact [ 2 ]) -> ()
  | _ -> Alcotest.fail "distance 2");
  let r3 = Reference.make "B" [ Expr.Var "i" ] in
  Alcotest.(check bool) "different arrays" true (Depend.ref_distance r1 r3 = None);
  let c1 = Reference.make "A" [ Expr.Const 0 ] in
  let c2 = Reference.make "A" [ Expr.Const 5 ] in
  Alcotest.(check bool) "distinct constants never alias" true
    (Depend.ref_distance c1 c2 = None)

let test_depend_identical_nonaffine () =
  let r = Reference.make "A" [ Expr.(Div (Var "i", 25)) ] in
  match Depend.ref_distance r r with
  | Some (Depend.Exact [ 0 ]) -> ()
  | _ -> Alcotest.fail "identical non-affine refs have distance 0"

let test_depend_tiling_legal () =
  let p =
    Parser.program ~name:"t"
      {|
array A[8][8] : 8
for i = 0 to 7 { for j = 0 to 7 { A[i][j] = A[i][j] work 1 } }
|}
  in
  (match p.Program.body with
  | [ Loop.For l ] ->
      Alcotest.(check bool) "self-update tileable" true (Depend.tiling_legal l)
  | _ -> Alcotest.fail "shape");
  let p2 =
    Parser.program ~name:"t"
      {|
array A[8][8] : 8
for i = 1 to 7 { for j = 0 to 7 { A[i][j] = A[i - 1][j] work 1 } }
|}
  in
  match p2.Program.body with
  | [ Loop.For l ] ->
      Alcotest.(check bool) "forward dep tileable" true (Depend.tiling_legal l)
  | _ -> Alcotest.fail "shape"

let test_depend_stmts_dependent () =
  let w =
    Stmt.make ~label:"w"
      ~write:(Reference.make "A" [ Expr.Var "i" ])
      [ Reference.make "B" [ Expr.Var "i" ] ]
  in
  let r = Stmt.make ~label:"r" [ Reference.make "A" [ Expr.Var "i" ] ] in
  let other = Stmt.make ~label:"o" [ Reference.make "C" [ Expr.Var "i" ] ] in
  Alcotest.(check bool) "write-read dependent" true (Depend.stmts_dependent w r);
  Alcotest.(check bool) "disjoint arrays independent" false
    (Depend.stmts_dependent w other)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "ir.expr",
      [
        Alcotest.test_case "eval" `Quick test_expr_eval;
        Alcotest.test_case "eval unbound" `Quick test_expr_eval_unbound;
        Alcotest.test_case "min/max" `Quick test_expr_minmax;
        Alcotest.test_case "simplify" `Quick test_expr_simplify;
        Alcotest.test_case "subst/shift" `Quick test_expr_subst_shift;
        Alcotest.test_case "vars" `Quick test_expr_vars;
        q qcheck_simplify_preserves_eval;
        q qcheck_printer_parser_roundtrip_expr;
      ] );
    ( "ir.array_decl",
      [
        Alcotest.test_case "basics" `Quick test_decl_basics;
        Alcotest.test_case "linearize" `Quick test_decl_linearize;
        Alcotest.test_case "validation" `Quick test_decl_validation;
        q qcheck_linearize_row_major;
      ] );
    ( "ir.lexer+printer",
      [
        Alcotest.test_case "comments/keywords" `Quick
          test_lexer_comments_and_keywords;
        Alcotest.test_case "error line" `Quick test_lexer_error_carries_line;
        Alcotest.test_case "describe total" `Quick test_lexer_describe_total;
        Alcotest.test_case "step/calls round-trip" `Quick
          test_printer_step_and_calls;
        Alcotest.test_case "negative bounds" `Quick test_printer_negative_bounds;
      ] );
    ( "ir.program",
      [
        Alcotest.test_case "loop accessors" `Quick test_loop_accessors;
        Alcotest.test_case "validation" `Quick test_program_validation;
        Alcotest.test_case "parser errors" `Quick test_parser_errors;
        Alcotest.test_case "pm calls" `Quick test_parser_pm_calls;
        Alcotest.test_case "print/parse round-trip" `Quick
          test_printer_roundtrip_program;
      ] );
    ( "ir.cost",
      [
        Alcotest.test_case "closed form" `Quick
          test_cost_closed_form_matches_enumeration;
        Alcotest.test_case "triangular" `Quick test_cost_triangular;
        Alcotest.test_case "seconds" `Quick test_cost_seconds;
      ] );
    ( "ir.enumerate",
      [
        Alcotest.test_case "order and count" `Quick
          test_enumerate_order_and_count;
      ] );
    ( "ir.depend",
      [
        Alcotest.test_case "normal form" `Quick test_depend_normal_form;
        Alcotest.test_case "ref distance" `Quick test_depend_ref_distance;
        Alcotest.test_case "identical non-affine" `Quick
          test_depend_identical_nonaffine;
        Alcotest.test_case "tiling legal" `Quick test_depend_tiling_legal;
        Alcotest.test_case "stmt dependence" `Quick test_depend_stmts_dependent;
      ] );
  ]
