type t =
  | Const of int
  | Var of string
  | Add of t * t
  | Sub of t * t
  | Mul of int * t
  | Div of t * int
  | Min of t * t
  | Max of t * t

let const n = Const n
let var x = Var x
let scale k e = Mul (k, e)
let min_ a b = Min (a, b)
let max_ a b = Max (a, b)

(* Floor division by a positive constant, also correct for negative
   numerators: the one copy [eval], [lower] and [bounds] share. *)
let floor_div n k = if n >= 0 then n / k else -(((-n) + k - 1) / k)

let rec eval env e =
  match e with
  | Const n -> n
  | Var x -> (
      try env x
      with Not_found -> invalid_arg ("Expr.eval: unbound iterator " ^ x))
  | Add (a, b) -> eval env a + eval env b
  | Sub (a, b) -> eval env a - eval env b
  | Mul (k, a) -> k * eval env a
  | Div (a, k) ->
      if k <= 0 then invalid_arg "Expr.eval: division by non-positive constant";
      floor_div (eval env a) k
  | Min (a, b) -> min (eval env a) (eval env b)
  | Max (a, b) -> max (eval env a) (eval env b)

let rec bounds range e =
  match e with
  | Const n -> (n, n)
  | Var x -> range x
  | Add (a, b) ->
      let la, ha = bounds range a and lb, hb = bounds range b in
      (la + lb, ha + hb)
  | Sub (a, b) ->
      let la, ha = bounds range a and lb, hb = bounds range b in
      (la - hb, ha - lb)
  | Mul (k, a) ->
      let la, ha = bounds range a in
      if k >= 0 then (k * la, k * ha) else (k * ha, k * la)
  | Div (a, k) ->
      if k <= 0 then invalid_arg "Expr.bounds: division by non-positive constant";
      let la, ha = bounds range a in
      (floor_div la k, floor_div ha k)
  | Min (a, b) ->
      let la, ha = bounds range a and lb, hb = bounds range b in
      (min la lb, min ha hb)
  | Max (a, b) ->
      let la, ha = bounds range a and lb, hb = bounds range b in
      (max la lb, max ha hb)

let vars e =
  let rec go acc = function
    | Const _ -> acc
    | Var x -> x :: acc
    | Add (a, b) | Sub (a, b) | Min (a, b) | Max (a, b) -> go (go acc a) b
    | Mul (_, a) | Div (a, _) -> go acc a
  in
  List.sort_uniq compare (go [] e)

(* [Add]/[Sub]/[Mul] subtrees as [(slot, coefficient)] terms plus a
   constant, like terms merged and zeros dropped.  Integer arithmetic
   wraps, so the regrouping is exact. *)
let rec affine slot e =
  let merge sign a b =
    match (affine slot a, affine slot b) with
    | Some (ta, ca), Some (tb, cb) ->
        let terms =
          List.fold_left
            (fun acc (i, c) ->
              match List.assoc_opt i acc with
              | Some c0 -> (i, c0 + (sign * c)) :: List.remove_assoc i acc
              | None -> (i, sign * c) :: acc)
            ta tb
        in
        Some (List.filter (fun (_, c) -> c <> 0) terms, ca + (sign * cb))
    | _ -> None
  in
  match e with
  | Const n -> Some ([], n)
  | Var x -> Some ([ (slot x, 1) ], 0)
  | Add (a, b) -> merge 1 a b
  | Sub (a, b) -> merge (-1) a b
  | Mul (k, a) ->
      Option.map
        (fun (terms, c) ->
          (List.filter_map
             (fun (i, c) -> if k * c = 0 then None else Some (i, k * c))
             terms, k * c))
        (affine slot a)
  | Div _ | Min _ | Max _ -> None

let rec compile slot e : int array -> int =
  match affine slot e with
  | Some ([], c) -> fun _ -> c
  | Some ([ (i, 1) ], 0) -> fun s -> s.(i)
  | Some ([ (i, a) ], c) -> fun s -> (a * s.(i)) + c
  | Some ([ (i, a); (j, b) ], c) -> fun s -> (a * s.(i)) + (b * s.(j)) + c
  | Some ([ (i, a); (j, b); (k, d) ], c) ->
      fun s -> (a * s.(i)) + (b * s.(j)) + (d * s.(k)) + c
  | Some (terms, c) ->
      let slots = Array.of_list (List.map fst terms)
      and coeffs = Array.of_list (List.map snd terms) in
      fun s ->
        let acc = ref c in
        for t = 0 to Array.length slots - 1 do
          acc := !acc + (coeffs.(t) * s.(slots.(t)))
        done;
        !acc
  | None -> (
      match e with
      | Add (a, b) ->
          let a = compile slot a and b = compile slot b in
          fun s -> a s + b s
      | Sub (a, b) ->
          let a = compile slot a and b = compile slot b in
          fun s -> a s - b s
      | Mul (k, a) ->
          let a = compile slot a in
          fun s -> k * a s
      | Div (_, k) when k <= 0 ->
          fun _ -> invalid_arg "Expr.eval: division by non-positive constant"
      | Div (a, k) ->
          let a = compile slot a in
          fun s -> floor_div (a s) k
      | Min (a, b) ->
          let a = compile slot a and b = compile slot b in
          fun s -> Int.min (a s) (b s)
      | Max (a, b) ->
          let a = compile slot a and b = compile slot b in
          fun s -> Int.max (a s) (b s)
      | Const _ | Var _ -> assert false)

let lower ~slot e =
  match List.iter (fun x -> ignore (slot x : int)) (vars e) with
  | () -> compile slot e
  | exception _ -> fun s -> eval (fun x -> s.(slot x)) e

let rec subst x by e =
  match e with
  | Const _ -> e
  | Var y -> if String.equal x y then by else e
  | Add (a, b) -> Add (subst x by a, subst x by b)
  | Sub (a, b) -> Sub (subst x by a, subst x by b)
  | Mul (k, a) -> Mul (k, subst x by a)
  | Div (a, k) -> Div (subst x by a, k)
  | Min (a, b) -> Min (subst x by a, subst x by b)
  | Max (a, b) -> Max (subst x by a, subst x by b)

let shift x k e = subst x (Add (Var x, Const k)) e

let rec simplify e =
  match e with
  | Const _ | Var _ -> e
  | Add (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (x + y)
      | Const 0, b' -> b'
      | a', Const 0 -> a'
      | a', b' -> Add (a', b'))
  | Sub (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (x - y)
      | a', Const 0 -> a'
      | a', b' -> Sub (a', b'))
  | Mul (k, a) -> (
      match (k, simplify a) with
      | 0, _ -> Const 0
      | 1, a' -> a'
      | k, Const x -> Const (k * x)
      | k, a' -> Mul (k, a'))
  | Div (a, k) -> (
      match (simplify a, k) with
      | a', 1 -> a'
      | Const x, k when x >= 0 -> Const (x / k)
      | a', k -> Div (a', k))
  | Min (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (min x y)
      | a', b' -> if a' = b' then a' else Min (a', b'))
  | Max (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (max x y)
      | a', b' -> if a' = b' then a' else Max (a', b'))

let equal a b = simplify a = simplify b

let rec pp ppf e =
  match e with
  | Const n -> Format.fprintf ppf "%d" n
  | Var x -> Format.fprintf ppf "%s" x
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp a pp b
  | Mul (k, a) -> Format.fprintf ppf "%d*%a" k pp a
  | Div (a, k) -> Format.fprintf ppf "(%a / %d)" pp a k
  | Min (a, b) -> Format.fprintf ppf "min(%a, %a)" pp a pp b
  | Max (a, b) -> Format.fprintf ppf "max(%a, %a)" pp a pp b

let to_string e = Format.asprintf "%a" pp e

(* Shadowing arithmetic: keep these definitions last so the implementations
   above use integer arithmetic. *)
let ( + ) a b = Add (a, b)
let ( - ) a b = Sub (a, b)
