type linear = (string * int) list * int

let rec normal_form e =
  match e with
  | Expr.Const n -> Some ([], n)
  | Expr.Var x -> Some ([ (x, 1) ], 0)
  | Expr.Add (a, b) -> combine ( + ) a b
  | Expr.Sub (a, b) -> combine ( - ) a b
  | Expr.Mul (k, a) -> (
      match normal_form a with
      | None -> None
      | Some (coeffs, c) ->
          Some (List.map (fun (x, v) -> (x, k * v)) coeffs, k * c))
  | Expr.Div _ | Expr.Min _ | Expr.Max _ -> None

and combine op a b =
  match (normal_form a, normal_form b) with
  | Some (ca, ka), Some (cb, kb) ->
      let merged =
        List.sort_uniq compare (List.map fst ca @ List.map fst cb)
      in
      let coeff l x = try List.assoc x l with Not_found -> 0 in
      let coeffs =
        List.filter_map
          (fun x ->
            let v = op (coeff ca x) (coeff cb x) in
            if v = 0 then None else Some ((x, v) : string * int))
          merged
      in
      Some (coeffs, op ka kb)
  | _ -> None

type distance = Exact of int list | Unknown

let ref_distance (a : Reference.t) (b : Reference.t) =
  if not (String.equal a.array b.array) then None
  else if List.length a.indices <> List.length b.indices then Some Unknown
  else if List.for_all2 Expr.equal a.indices b.indices then
    (* Syntactically identical subscripts always touch the same element
       in the same iteration: zero distance, even when the expressions
       are not affine (e.g. [i/25]). *)
    Some (Exact (List.map (fun _ -> 0) a.indices))
  else
    let dims =
      List.map2
        (fun ea eb ->
          match (normal_form ea, normal_form eb) with
          | Some (ca, ka), Some (cb, kb) when ca = cb -> `Const (kb - ka, ca = [])
          | _ -> `Unknown)
        a.indices b.indices
    in
    (* Two constant subscripts that differ mean the references can never
       touch the same element. *)
    let never_alias =
      List.exists
        (function `Const (d, true) when d <> 0 -> true | _ -> false)
        dims
    in
    if never_alias then None
    else if List.for_all (function `Const _ -> true | `Unknown -> false) dims
    then
      Some
        (Exact
           (List.map
              (function `Const (d, _) -> d | `Unknown -> assert false)
              dims))
    else Some Unknown

let stmts_dependent (s1 : Stmt.t) (s2 : Stmt.t) =
  let pairs_conflict r1 r2 =
    match ref_distance r1 r2 with None -> false | Some _ -> true
  in
  let writes s = match s.Stmt.write with None -> [] | Some w -> [ w ] in
  let any l1 l2 = List.exists (fun a -> List.exists (pairs_conflict a) l2) l1 in
  any (writes s1) (Stmt.refs s2) || any (Stmt.refs s1) (writes s2)

(* Map a subscript-space distance vector onto the nest's iterator order:
   the distance in iterator [v] induced by subscript distances.  We only
   track subscripts of the form v + c (unit coefficient on one iterator),
   which covers the stencil-style codes in the suite; anything else is
   treated as Unknown by [ref_distance] upstream. *)
let iter_distance iterators (r : Reference.t) dists =
  let per_iter = Hashtbl.create 8 in
  let ok = ref true in
  List.iter2
    (fun e d ->
      match normal_form e with
      | Some ([ (v, 1) ], _) ->
          let prev = Option.value ~default:d (Hashtbl.find_opt per_iter v) in
          if prev <> d then ok := false;
          Hashtbl.replace per_iter v d
      | Some ([], _) -> if d <> 0 then ok := false
      | _ -> if d <> 0 then ok := false)
    r.indices dists;
  if not !ok then None
  else
    Some
      (List.map
         (fun v -> Option.value ~default:0 (Hashtbl.find_opt per_iter v))
         iterators)

let dependence_pairs (l : Loop.t) =
  let stmts = Loop.stmts l in
  let pairs = ref [] in
  List.iteri
    (fun i s1 ->
      List.iteri
        (fun j s2 -> if j >= i then pairs := (s1, s2) :: !pairs)
        stmts)
    stmts;
  !pairs

let carried_info (l : Loop.t) =
  let iterators = Loop.iterators l in
  let exact = ref [] in
  let unknown = ref false in
  let writes (s : Stmt.t) = match s.write with None -> [] | Some w -> [ w ] in
  (* A constant-distance pair read in the opposite order yields the
     negated vector for the same dependence; normalize to the
     lexicographically non-negative representative (source before sink). *)
  let normalize vec =
    let rec sign = function
      | [] -> 0
      | 0 :: rest -> sign rest
      | d :: _ -> compare d 0
    in
    if sign vec < 0 then List.map (fun d -> -d) vec else vec
  in
  let consider r1 r2 =
    match ref_distance r1 r2 with
    | None -> ()
    | Some Unknown -> unknown := true
    | Some (Exact ds) -> (
        if List.exists (fun d -> d <> 0) ds then
          match iter_distance iterators r1 ds with
          | Some vec -> exact := normalize vec :: !exact
          | None -> unknown := true)
  in
  List.iter
    (fun (s1, s2) ->
      List.iter (fun w -> List.iter (consider w) (Stmt.refs s2)) (writes s1);
      List.iter (fun w -> List.iter (consider w) (writes s2)) (Stmt.refs s1))
    (dependence_pairs l);
  (List.rev !exact, !unknown)

let tiling_legal l =
  let exact, unknown = carried_info l in
  (not unknown)
  && List.for_all (fun vec -> List.for_all (fun d -> d >= 0) vec) exact
