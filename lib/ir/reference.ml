type t = { array : string; indices : Expr.t list }

let make array indices =
  if indices = [] then invalid_arg "Reference.make: no subscripts";
  { array; indices }

let eval env t = List.map (Expr.eval env) t.indices

let vars t =
  List.sort_uniq compare (List.concat_map Expr.vars t.indices)

let subst x by t = { t with indices = List.map (Expr.subst x by) t.indices }

let equal a b =
  String.equal a.array b.array
  && List.length a.indices = List.length b.indices
  && List.for_all2 Expr.equal a.indices b.indices

let pp ppf t =
  Format.fprintf ppf "%s%s" t.array
    (String.concat ""
       (List.map (fun e -> "[" ^ Expr.to_string e ^ "]") t.indices))
