type t = Base | Tpm | Itpm | Drpm | Idrpm | Cmtpm | Cmdrpm | Adaptive

let all = [ Base; Tpm; Itpm; Drpm; Idrpm; Cmtpm; Cmdrpm ]
let extended = all @ [ Adaptive ]

let name = function
  | Base -> "Base"
  | Tpm -> "TPM"
  | Itpm -> "ITPM"
  | Drpm -> "DRPM"
  | Idrpm -> "IDRPM"
  | Cmtpm -> "CMTPM"
  | Cmdrpm -> "CMDRPM"
  | Adaptive -> "Adaptive"

let names = List.map name all
let extended_names = List.map name extended

let of_name_opt s =
  let s = String.lowercase_ascii s in
  List.find_opt
    (fun t -> String.equal (String.lowercase_ascii (name t)) s)
    extended

let conv =
  let parse s =
    match of_name_opt s with
    | Some t -> Ok t
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown scheme %S (expected one of: %s)" s
               (String.concat ", " extended_names)))
  in
  Cmdliner.Arg.conv (parse, fun ppf t -> Format.pp_print_string ppf (name t))

let is_compiler_managed = function
  | Cmtpm | Cmdrpm -> true
  | Base | Tpm | Itpm | Drpm | Idrpm | Adaptive -> false

let is_ideal = function
  | Itpm | Idrpm -> true
  | Base | Tpm | Drpm | Cmtpm | Cmdrpm | Adaptive -> false
