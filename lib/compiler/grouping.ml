module Ir = Dpm_ir

type t = { order : string list; group_ids : (string, int) Hashtbl.t }

(* Plain union-find over array names. *)
module Uf = struct
  type t = (string, string) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let rec find uf x =
    match Hashtbl.find_opt uf x with
    | None ->
        Hashtbl.replace uf x x;
        x
    | Some p when String.equal p x -> x
    | Some p ->
        let root = find uf p in
        Hashtbl.replace uf x root;
        root

  let union uf a b =
    let ra = find uf a and rb = find uf b in
    if not (String.equal ra rb) then Hashtbl.replace uf ra rb
end

let build stmts arrays_in_order =
  let uf = Uf.create () in
  List.iter
    (fun s ->
      match Ir.Stmt.arrays s with
      | [] -> ()
      | first :: rest -> List.iter (fun a -> Uf.union uf first a) rest)
    stmts;
  (* Assign group ids in order of first appearance of each root. *)
  let group_ids = Hashtbl.create 16 in
  let root_ids = Hashtbl.create 16 in
  let next = ref 0 in
  let order = ref [] in
  List.iter
    (fun a ->
      let root = Uf.find uf a in
      let gid =
        match Hashtbl.find_opt root_ids root with
        | Some g -> g
        | None ->
            let g = !next in
            incr next;
            Hashtbl.replace root_ids root g;
            g
      in
      Hashtbl.replace group_ids a gid;
      order := a :: !order)
    arrays_in_order;
  { order = List.rev !order; group_ids }

let of_program (p : Ir.Program.t) =
  build (Ir.Program.stmts p)
    (List.map (fun (a : Ir.Array_decl.t) -> a.name) p.arrays)

let group_of t name =
  match Hashtbl.find_opt t.group_ids name with
  | Some g -> g
  | None -> raise Not_found

let group_count t =
  1 + Hashtbl.fold (fun _ g acc -> max g acc) t.group_ids (-1)

let groups t =
  let n = group_count t in
  let buckets = Array.make n [] in
  List.iter
    (fun a -> buckets.(group_of t a) <- a :: buckets.(group_of t a))
    (List.rev t.order);
  Array.to_list (Array.map (List.sort_uniq compare) buckets)

let group_bytes (p : Ir.Program.t) t =
  let bytes = Array.make (group_count t) 0 in
  List.iter
    (fun (a : Ir.Array_decl.t) ->
      match Hashtbl.find_opt t.group_ids a.name with
      | Some g -> bytes.(g) <- bytes.(g) + Ir.Array_decl.size_bytes a
      | None -> ())
    p.arrays;
  bytes

let stmt_group t s =
  match Ir.Stmt.arrays s with
  | [] -> invalid_arg "Grouping.stmt_group: statement references no arrays"
  | a :: _ -> group_of t a
