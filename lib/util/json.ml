type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing --- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_str x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x (* keep a ".0" so the type survives reparsing *)
  else if Float.is_nan x then "null" (* NaN has no JSON spelling *)
  else if x = Float.infinity then "1e999"
  else if x = Float.neg_infinity then "-1e999"
  else Printf.sprintf "%.17g" x

let to_buffer ?indent buf v =
  let nl depth =
    match indent with
    | None -> ()
    | Some step ->
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (depth * step) ' ')
  in
  let sep () = match indent with None -> () | Some _ -> Buffer.add_char buf ' ' in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float x -> Buffer.add_string buf (float_str x)
    | Str s -> escape buf s
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            nl (depth + 1);
            go (depth + 1) x)
          xs;
        nl depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            nl (depth + 1);
            escape buf k;
            Buffer.add_char buf ':';
            sep ();
            go (depth + 1) x)
          fields;
        nl depth;
        Buffer.add_char buf '}'
  in
  go 0 v

let to_string ?indent v =
  let buf = Buffer.create 256 in
  to_buffer ?indent buf v;
  Buffer.contents buf

let to_channel ?indent oc v = output_string oc (to_string ?indent v)

(* --- parsing --- *)

exception Parse_error of string

let parse_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_str () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'u' ->
                   if !pos + 4 >= n then fail "bad \\u escape";
                   let hex = String.sub s (!pos + 1) 4 in
                   let code =
                     try int_of_string ("0x" ^ hex)
                     with _ -> fail "bad \\u escape"
                   in
                   (* UTF-8 encode the BMP code point (no surrogate pairing
                      — the writer only emits \u for control chars). *)
                   (if code < 0x80 then Buffer.add_char buf (Char.chr code)
                    else if code < 0x800 then begin
                      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                    end
                    else begin
                      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                      Buffer.add_char buf
                        (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                    end);
                   pos := !pos + 5
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
            go ()
        | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    let is_integral =
      not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit)
    in
    if is_integral then
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> fail "bad number")
    else
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec go () =
            skip_ws ();
            let k = parse_str () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); go ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          go ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec go () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); go ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          go ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_str ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function Arr xs -> Some xs | _ -> None

let to_float = function
  | Float x -> Some x
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

type 'a field = at:string -> string -> t -> ('a option, string) result

let typed conv what ~at key j =
  match Option.map conv (member key j) with
  | None -> Ok None
  | Some (Some _ as x) -> Ok x
  | Some None -> Error (Printf.sprintf "%s%s: expected %s" at key what)

let number = typed to_float "a number"
let integer = typed to_int "an integer"
let text = typed to_str "a string"
let boolean = typed to_bool "a boolean"
let array = typed to_list "an array"
let obj = typed (function Obj _ as o -> Some o | _ -> None) "an object"

let required (read : _ field) ~at key j =
  match read ~at key j with
  | Ok (Some x) -> Ok x
  | Ok None -> Error (Printf.sprintf "%s%s: missing" at key)
  | Error m -> Error m

(* --- JSONL sections --- *)

let read_sections ~header ~row ic =
  let ( let* ) = Result.bind in
  let close cur acc =
    match cur with None -> acc | Some (h, rows) -> (h, List.rev rows) :: acc
  in
  let rec go n cur acc =
    let at r = Result.map_error (Printf.sprintf "line %d: %s" n) r in
    match In_channel.input_line ic with
    | None -> Ok (List.rev (close cur acc))
    | Some line when String.trim line = "" -> go (n + 1) cur acc
    | Some line -> (
        let* j = at (parse_string line) in
        match header j with
        | Some h ->
            let* h = at h in
            go (n + 1) (Some (Some h, [])) (close cur acc)
        | None ->
            let h, rows = Option.value cur ~default:(None, []) in
            let* r = at (row h j) in
            go (n + 1) (Some (h, r :: rows)) acc)
  in
  go 1 None []

(* --- schema outline --- *)

let schema_outline v =
  let tag = function
    | Null -> "null"
    | Bool _ -> "b"
    | Int _ | Float _ -> "n"
    | Str _ -> "s"
    | Arr _ -> "a"
    | Obj _ -> "o"
  in
  let lines = Hashtbl.create 64 in
  let rec go path v =
    match v with
    | Obj fields ->
        Hashtbl.replace lines (path ^ ":o") ();
        List.iter (fun (k, x) -> go (path ^ "." ^ k) x) fields
    | Arr xs ->
        Hashtbl.replace lines (path ^ ":a") ();
        List.iter (fun x -> go (path ^ "[]") x) xs
    | v -> Hashtbl.replace lines (path ^ ":" ^ tag v) ()
  in
  go "" v;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) lines [])
