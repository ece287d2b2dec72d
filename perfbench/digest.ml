(* Per-job output digests: per-scheme energy, execution time and request
   count, floats at %.17g so equal digests mean bit-identical results.
   The committed table (data/digests.txt) was written by the seed
   program; every timed job is checked against it. *)

module Json = Dpm_util.Json

let entry ~scheme ~energy ~time ~requests =
  Printf.sprintf "%s:%.17g:%.17g:%d" scheme energy time requests

let of_results results =
  String.concat " "
    (List.map
       (fun (s, (r : Dpm_sim.Result.t)) ->
         entry ~scheme:(Dpm_core.Scheme.name s) ~energy:r.energy
           ~time:r.exec_time ~requests:(Dpm_sim.Result.requests r))
       results)

(* The same digest read back from a dpm-report/1 document. *)
let of_report report =
  let field k conv j = Option.bind (Json.member k j) conv in
  match Option.bind (Json.member "schemes" report) Json.to_list with
  | None -> Error "report has no schemes array"
  | Some rows ->
      List.fold_left
        (fun acc row ->
          match
            ( acc,
              field "scheme" Json.to_str row,
              field "energy_j" Json.to_float row,
              field "exec_time_s" Json.to_float row,
              field "requests" Json.to_int row )
          with
          | Ok l, Some scheme, Some energy, Some time, Some requests ->
              Ok (entry ~scheme ~energy ~time ~requests :: l)
          | (Error _ as e), _, _, _, _ -> e
          | Ok _, _, _, _, _ -> Error "report scheme row is incomplete")
        (Ok []) rows
      |> Result.map (fun l -> String.concat " " (List.rev l))

type table = (string, string) Hashtbl.t

let load path : table =
  let t = Hashtbl.create 64 in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line -> (
            match String.index_opt line '\t' with
            | Some i ->
                Hashtbl.replace t (String.sub line 0 i)
                  (String.sub line (i + 1) (String.length line - i - 1));
                go ()
            | None -> go ())
      in
      go ());
  t

let save path entries =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (k, d) -> Printf.fprintf oc "%s\t%s\n" k d)
        (List.sort compare entries))

let check (t : table) key digest =
  match Hashtbl.find_opt t key with
  | Some d when String.equal d digest -> Ok ()
  | Some d -> Error (Printf.sprintf "%s: digest mismatch: got %s, want %s" key digest d)
  | None -> Error (Printf.sprintf "%s: no committed digest" key)
