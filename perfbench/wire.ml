(* A benchmark-owned client of the daemon's line protocol (one JSON
   object per line; see DESIGN.md section 16).  It timestamps every frame
   and counts bytes, which the library client does not expose. *)

module Json = Dpm_util.Json

type conn = { ic : in_channel; oc : out_channel }

(* Dial a Unix socket, retrying while the daemon starts.  The back-off
   starts at 0.5 ms and doubles up to 2 ms, so readiness is seen within
   2 ms of the daemon listening. *)
let connect ?(timeout = 20.0) path =
  let deadline = Probe.now () +. timeout in
  let rec go delay =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
        Ok
          {
            ic = Unix.in_channel_of_descr fd;
            oc = Unix.out_channel_of_descr (Unix.dup fd);
          }
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when Probe.now () < deadline ->
        Unix.close fd;
        Unix.sleepf delay;
        go (Float.min 0.002 (delay *. 2.0))
    | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        Error (Printf.sprintf "connect %s: %s" path (Unix.error_message e))
  in
  go 0.0005

let close c =
  close_out_noerr c.oc;
  close_in_noerr c.ic

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv c = try Some (input_line c.ic) with End_of_file | Sys_error _ -> None

let ping c =
  send c {|{"op":"ping"}|};
  match recv c with
  | Some l when String.equal l {|{"ok":"pong"}|} -> Ok ()
  | Some l -> Error ("unexpected ping reply: " ^ l)
  | None -> Error "connection closed"

type exchange = {
  sent : float;  (** Submit frame written. *)
  accepted : float;  (** Accepted frame read ([nan] if none). *)
  finished : float;  (** Terminal frame read. *)
  frames : int;  (** Frames received. *)
  bytes : int;  (** Bytes sent and received. *)
  outcome : (Json.t, string) result;
      (** The dpm-report/1 document, or the typed error's message. *)
  rejected : bool;  (** The daemon answered queue-full. *)
}

let submit_frame ?meter spec_json =
  Printf.sprintf {|{"op":"submit","spec":%s%s}|} spec_json
    (match meter with None -> "" | Some r -> Printf.sprintf {|,"meter":%.17g|} r)

(* Send one submit frame and read frames up to the terminal one. *)
let submit c frame =
  let sent = Probe.now () in
  match send c frame with
  | exception Sys_error m ->
      {
        sent;
        accepted = nan;
        finished = Probe.now ();
        frames = 0;
        bytes = 0;
        outcome = Error ("send: " ^ m);
        rejected = false;
      }
  | () ->
  let bytes = ref (String.length frame + 1) in
  let rec loop accepted frames =
    match recv c with
    | None ->
        (accepted, Probe.now (), frames, Error "connection closed", false)
    | Some line -> (
        let t = Probe.now () in
        bytes := !bytes + String.length line + 1;
        let frames = frames + 1 in
        match Json.parse_string line with
        | Error m -> (accepted, t, frames, Error ("invalid frame: " ^ m), false)
        | Ok j -> (
            match
              ( Json.member "report" j,
                Json.member "error" j,
                Json.member "sample" j )
            with
            | Some report, _, _ -> (accepted, t, frames, Ok report, false)
            | None, Some kind, _ ->
                let rejected = Json.to_str kind = Some "queue-full" in
                (accepted, t, frames, Error line, rejected)
            | None, None, Some _ -> loop accepted frames
            | None, None, None -> loop t frames))
  in
  let accepted, finished, frames, outcome, rejected = loop nan 0 in
  { sent; accepted; finished; frames; bytes = !bytes; outcome; rejected }

(* Ask the daemon to drain and exit; the reply comes once it has. *)
let shutdown c =
  match send c {|{"op":"shutdown"}|} with
  | () -> ignore (recv c)
  | exception Sys_error _ -> ()
