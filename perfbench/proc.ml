(* Process plumbing: peak memory, the daemon's lifetime. *)

(* VmHWM of a process ("self" or a pid) in MB. *)
let peak_rss_mb who =
  let path = Printf.sprintf "/proc/%s/status" who in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] -> (
                 match
                   String.split_on_char ' ' (String.trim v)
                   |> List.filter (( <> ) "")
                 with
                 | [ kb; "kB" ] ->
                     Option.map (fun k -> float k /. 1024.0) (int_of_string_opt kb)
                 | _ -> None)
             | _ -> None)

let scratch_dir = ".perfbench"

let ensure_scratch () =
  if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755

type daemon = { pid : int; socket : string }

(* Daemons started and not yet reaped.  Whatever way the benchmark ends
   (normal exit, an exception, SIGINT/SIGTERM/SIGHUP), they are killed
   and waited for. *)
let live : daemon list ref = ref []

let reap d =
  let rec go () =
    match Unix.waitpid [] d.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (fun x -> x.pid <> d.pid) !live

let kill_daemon d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap d

let guard =
  lazy
    (at_exit (fun () -> List.iter kill_daemon !live);
     List.iter
       (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
       [ Sys.sigint; Sys.sigterm; Sys.sighup ];
     (* A daemon that dies mid-run must fail the job, not the client. *)
     Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

(* Start [dpmsim serve] with one worker domain.  It inherits this
   process's CPU affinity, so when the launcher pins the benchmark to one
   CPU the daemon runs on that CPU too, next to the probe.  Its log goes
   to a file under the scratch directory. *)
let start_daemon ~exe ~socket =
  Lazy.force guard;
  ensure_scratch ();
  (try Sys.remove socket with Sys_error _ -> ());
  let log =
    Unix.openfile
      (Filename.concat scratch_dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--domains"; "1"; "--socket"; socket; "--queue"; "64" |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  let d = { pid; socket } in
  live := d :: !live;
  d
