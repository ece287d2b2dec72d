type align = Left | Right

type t = {
  title : string;
  columns : (string * align) list;
  mutable rows : string list list; (* reverse order *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- cells :: t.rows

let render t =
  let headers = List.map fst t.columns in
  let rows = List.rev t.rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  let note_widths cells =
    List.iteri
      (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c)
      cells
  in
  List.iter note_widths (headers :: rows);
  let pad i s =
    let w = widths.(i) in
    let n = w - String.length s in
    let align = snd (List.nth t.columns i) in
    if n <= 0 then s
    else
      match align with
      | Left -> s ^ String.make n ' '
      | Right -> String.make n ' ' ^ s
  in
  let buf = Buffer.create 256 in
  let emit_cells cells =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad i c))
      cells;
    Buffer.add_char buf '\n'
  in
  let rule () =
    Array.iteri
      (fun i w ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (String.make w '-'))
      widths;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  emit_cells headers;
  rule ();
  List.iter emit_cells rows;
  Buffer.contents buf

let cell_int n = string_of_int n
let cell_f x = Printf.sprintf "%.2f" x
let cell_f3 x = Printf.sprintf "%.3f" x
