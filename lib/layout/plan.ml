type order = Row_major | Col_major

type entry = {
  decl : Dpm_ir.Array_decl.t;
  striping : Striping.t;
  order : order;
}

type placed = { entry : entry; base_block : int }
type t = { ndisks : int; table : (string * placed) list }

let validate_entry ~ndisks (e : entry) =
  if e.striping.Striping.stripe_factor > ndisks then
    invalid_arg
      (Printf.sprintf "Plan: stripe factor of %s exceeds %d disks"
         e.decl.Dpm_ir.Array_decl.name ndisks);
  if e.striping.Striping.start_disk >= ndisks then
    invalid_arg
      (Printf.sprintf "Plan: start disk of %s out of range"
         e.decl.Dpm_ir.Array_decl.name)

let unit_count_of_entry (e : entry) =
  Striping.units_in_file e.striping
    ~file_bytes:(Dpm_ir.Array_decl.size_bytes e.decl)

let make ~ndisks entries =
  if ndisks <= 0 then invalid_arg "Plan.make: non-positive disk count";
  List.iter (validate_entry ~ndisks) entries;
  let _, table =
    List.fold_left
      (fun (base, acc) (e : entry) ->
        let name = e.decl.Dpm_ir.Array_decl.name in
        if List.mem_assoc name acc then
          invalid_arg ("Plan.make: duplicate array " ^ name);
        (base + unit_count_of_entry e, (name, { entry = e; base_block = base }) :: acc))
      (0, []) entries
  in
  { ndisks; table = List.rev table }

let uniform ?(order = Row_major) ?(striping = Striping.default) ~ndisks
    (p : Dpm_ir.Program.t) =
  make ~ndisks
    (List.map (fun decl -> { decl; striping; order }) p.Dpm_ir.Program.arrays)

let ndisks t = t.ndisks

(* [String.equal], not [List.assoc]'s polymorphic compare, and no
   closure: the trace generator looks arrays up on every miss. *)
let rec find_placed name = function
  | [] -> raise Not_found
  | (n, p) :: rest -> if String.equal n name then p else find_placed name rest

let placed t name = find_placed name t.table

let entry t name = (placed t name).entry
let entries t = List.map (fun (_, p) -> p.entry) t.table

let update t name f =
  if not (List.mem_assoc name t.table) then raise Not_found;
  let entries =
    List.map
      (fun (n, p) -> if String.equal n name then f p.entry else p.entry)
      t.table
  in
  make ~ndisks:t.ndisks entries

let set_striping t name striping =
  update t name (fun e -> { e with striping })

let set_order t name order = update t name (fun e -> { e with order })

(* Index vector and extents in storage order (outermost-varying first). *)
let storage_view (e : entry) idx =
  let dims = e.decl.Dpm_ir.Array_decl.dims in
  match e.order with
  | Row_major -> (dims, idx)
  | Col_major -> (List.rev dims, List.rev idx)

(* The element rule, resolved once per array: extents in subscript
   order, whether storage runs them backwards (column-major), and the
   sizes that turn a linear index into a byte offset and a unit. *)
type element = {
  name : string;
  dims : int array;
  col_major : bool;
  elem_size : int;
  stripe_size : int;
  base : int;
}

let element t name =
  let { entry = e; base_block } = placed t name in
  {
    name;
    dims = Array.of_list e.decl.Dpm_ir.Array_decl.dims;
    col_major = e.order = Col_major;
    elem_size = e.decl.Dpm_ir.Array_decl.elem_size;
    stripe_size = e.striping.Striping.stripe_size;
    base = base_block;
  }

(* Byte offset of the element at [idx] (subscript order) within its
   file: bounds-checked, linearized in storage order. *)
let offset_of el idx =
  let rank = Array.length el.dims in
  if Array.length idx <> rank then
    invalid_arg ("Plan.element_offset: wrong rank for " ^ el.name);
  let linear = ref 0 in
  for k = 0 to rank - 1 do
    let d = if el.col_major then rank - 1 - k else k in
    let i = idx.(d) and extent = el.dims.(d) in
    if i < 0 || i >= extent then
      invalid_arg ("Plan.element_offset: index out of range for " ^ el.name);
    linear := (!linear * extent) + i
  done;
  !linear * el.elem_size

let element_offset t name idx = offset_of (element t name) (Array.of_list idx)

(* The offset is never negative once the bounds check passed. *)
let element_block t name =
  let el = element t name in
  fun idx -> el.base + (offset_of el idx / el.stripe_size)

let element_unit t name idx =
  element_block t name (Array.of_list idx) - (placed t name).base_block

let unit_disk t name u =
  let e = entry t name in
  Striping.disk_of_unit e.striping ~ndisks:t.ndisks u

let unit_count t name = unit_count_of_entry (entry t name)

let unit_bytes t name u =
  let e = entry t name in
  let ss = e.striping.Striping.stripe_size in
  min ss (Dpm_ir.Array_decl.size_bytes e.decl - (u * ss))

let unit_global_block t name u = (placed t name).base_block + u

let blocks t =
  List.fold_left
    (fun acc (_, p) -> max acc (p.base_block + unit_count_of_entry p.entry))
    0 t.table

(* --- Region queries --- *)

let clamp_region dims region =
  List.map2
    (fun d (lo, hi) -> (max 0 lo, min (d - 1) hi))
    dims region

(* Byte runs of a rectangular region, in storage order.  A maximal suffix
   of fully-covered dimensions is folded into the innermost run so that
   whole-array regions cost one run, not one per row. *)
let region_byte_runs (e : entry) region =
  let dims, region = storage_view e region in
  let region = clamp_region dims region in
  if List.exists (fun (lo, hi) -> hi < lo) region then []
  else
    let dims_a = Array.of_list dims in
    let reg_a = Array.of_list region in
    let r = Array.length dims_a in
    (* Find the smallest k such that dims k..r-1 are fully covered. *)
    let full = ref r in
    (try
       for k = r - 1 downto 0 do
         let lo, hi = reg_a.(k) in
         if lo = 0 && hi = dims_a.(k) - 1 then full := k else raise Exit
       done
     with Exit -> ());
    let split = max 1 !full in
    (* A run spans dims split-1 .. r-1: contiguous from the low corner of
       dim split-1 to its high corner, with all inner dims full...  Only
       when dims split..r-1 are fully covered, which holds when
       split >= !full; when split-1 = r-1 the run is just the innermost
       interval. *)
    let inner_extent =
      let x = ref 1 in
      for k = split to r - 1 do
        x := !x * dims_a.(k)
      done;
      !x
    in
    let es = e.decl.Dpm_ir.Array_decl.elem_size in
    let runs = ref [] in
    (* Iterate the outer dims 0 .. split-2; dim split-1 forms the run. *)
    let rec go k prefix =
      if k = split - 1 then begin
        let lo, hi = reg_a.(k) in
        let base = (prefix * dims_a.(k)) + lo in
        let first_elem = base * inner_extent in
        let count = (hi - lo + 1) * inner_extent in
        runs := (first_elem * es, ((first_elem + count) * es) - 1) :: !runs
      end
      else
        let lo, hi = reg_a.(k) in
        for i = lo to hi do
          go (k + 1) ((prefix * dims_a.(k)) + i)
        done
    in
    if r = 0 then []
    else begin
      go 0 0;
      List.rev !runs
    end

let normalize_int_runs runs =
  let sorted = List.sort compare runs in
  let rec merge = function
    | [] -> []
    | [ x ] -> [ x ]
    | (l1, h1) :: (l2, h2) :: rest ->
        if l2 <= h1 + 1 then merge ((l1, max h1 h2) :: rest)
        else (l1, h1) :: merge ((l2, h2) :: rest)
  in
  merge sorted

let region_units t name region =
  let e = entry t name in
  let byte_runs = region_byte_runs e region in
  let ss = e.striping.Striping.stripe_size in
  normalize_int_runs (List.map (fun (b0, b1) -> (b0 / ss, b1 / ss)) byte_runs)

let region_disks t name region =
  let e = entry t name in
  let factor = e.striping.Striping.stripe_factor in
  let runs = region_units t name region in
  let seen = Hashtbl.create 8 in
  (try
     List.iter
       (fun (u0, u1) ->
         (* A run of >= factor units covers the whole stripe. *)
         let u1 = if u1 - u0 + 1 >= factor then u0 + factor - 1 else u1 in
         for u = u0 to u1 do
           Hashtbl.replace seen
             (Striping.disk_of_unit e.striping ~ndisks:t.ndisks u)
             ();
           if Hashtbl.length seen >= min factor t.ndisks then raise Exit
         done)
       runs
   with Exit -> ());
  List.sort compare (Hashtbl.fold (fun d () acc -> d :: acc) seen [])

let pp ppf t =
  Format.fprintf ppf "@[<v>layout over %d disks:@," t.ndisks;
  List.iter
    (fun (name, p) ->
      Format.fprintf ppf "  %s -> %a %s@," name Striping.pp p.entry.striping
        (match p.entry.order with
        | Row_major -> "row-major"
        | Col_major -> "col-major"))
    t.table;
  Format.fprintf ppf "@]"
