let ( let* ) = Result.bind

let clauses ~sep s =
  List.filter_map
    (fun c ->
      let c = String.trim c in
      if c = "" then None else Some c)
    (String.split_on_char sep s)

let all f l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) l
  |> Result.map List.rev

let pairs ~sep s =
  all
    (fun clause ->
      match String.index_opt clause '=' with
      | None -> Error (Printf.sprintf "expected key=value, got %S" clause)
      | Some i ->
          Ok
            ( String.trim (String.sub clause 0 i),
              String.trim
                (String.sub clause (i + 1) (String.length clause - i - 1)) ))
    (clauses ~sep s)

let int key v =
  let v = String.trim v in
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> (
      match float_of_string_opt v with
      | Some x when Float.is_integer x && Float.abs x < 0x1p62 ->
          Ok (int_of_float x)
      | _ -> Error (Printf.sprintf "%s: expected an integer, got %S" key v))

let float key v =
  let v = String.trim v in
  match float_of_string_opt v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "%s: expected a number, got %S" key v)
