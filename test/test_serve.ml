(* Tests for Dpm_core.Service: parallel submissions over a depth-limited
   queue must produce byte-identical reports to serial execution, the
   bounded admission queue must reject with the typed Queue_full error
   (and Shutting_down after shutdown begins), a metered job's streamed
   sample integral must reproduce Result.energy to 1e-6 relative, the
   typed service errors must round-trip through JSON, and the Net layer
   must carry a spec to a report over a real Unix socket — and keep
   serving after clients hang up mid-job. *)

module Service = Dpm_core.Service
module Run = Dpm_core.Run
module Scheme = Dpm_core.Scheme
module Json = Dpm_util.Json

let check = Alcotest.check
let checkb = Alcotest.(check bool)

let job_spec ?(schemes = [ Scheme.Base; Scheme.Tpm ]) bench =
  Run.spec ~schemes (Run.Benchmark bench)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Run.error_message e)

let fingerprint (outcome : Service.outcome) =
  String.concat "\n"
    (Printf.sprintf "%s %s" outcome.Service.label
       (Json.to_string outcome.Service.report)
    :: List.map
         (fun (s, (r : Dpm_sim.Result.t)) ->
           Printf.sprintf "%s %.17g %.17g" (Scheme.name s)
             r.Dpm_sim.Result.energy r.Dpm_sim.Result.exec_time)
         outcome.Service.results)

(* --- determinism: N parallel submits == serial execution --- *)

let test_parallel_equals_serial () =
  let benches = [ "swim"; "mgrid"; "swim"; "galgel" ] in
  let serial =
    let svc = Service.create ~domains:1 ~queue:16 () in
    let prints =
      List.map
        (fun b -> fingerprint (ok (Service.await svc (ok (Service.submit svc (job_spec b))))))
        benches
    in
    Service.shutdown svc;
    prints
  in
  let parallel =
    (* Queue depth 2 with 2 workers: admission pressure is real, yet
       every job must come back identical to its serial twin. *)
    let svc = Service.create ~domains:2 ~queue:2 () in
    let rec submit spec =
      match Service.submit svc spec with
      | Ok id -> id
      | Error (Run.Queue_full { retry_after }) ->
          Thread.delay (Float.min retry_after 0.01);
          submit spec
      | Error e -> Alcotest.failf "submit: %s" (Run.error_message e)
    in
    let ids = List.map (fun b -> submit (job_spec b)) benches in
    let prints = List.map (fun id -> fingerprint (ok (Service.await svc id))) ids in
    Service.shutdown svc;
    prints
  in
  List.iteri
    (fun i (s, p) ->
      check Alcotest.string (Printf.sprintf "job %d byte-identical" i) s p)
    (List.combine serial parallel)

let test_daemon_equals_direct_exec () =
  let spec = job_spec "swim" in
  let direct = ok (Run.exec_all spec) in
  let svc = Service.create ~domains:1 ~queue:4 () in
  let outcome = ok (Service.await svc (ok (Service.submit svc spec))) in
  Service.shutdown svc;
  List.iter2
    (fun (s, (a : Dpm_sim.Result.t)) (s', (b : Dpm_sim.Result.t)) ->
      checkb "same scheme" true (s = s');
      check Alcotest.string "bit-identical energy/time"
        (Printf.sprintf "%.17g %.17g" a.Dpm_sim.Result.energy
           a.Dpm_sim.Result.exec_time)
        (Printf.sprintf "%.17g %.17g" b.Dpm_sim.Result.energy
           b.Dpm_sim.Result.exec_time))
    direct outcome.Service.results

(* --- backpressure at queue depth 1 --- *)

(* A runner the test controls: blocks until released, and tells us when
   a worker has actually picked the job up. *)
let blocking_runner () =
  let m = Mutex.create () in
  let c = Condition.create () in
  let started = ref 0 in
  let release = ref false in
  let runner _spec =
    Mutex.lock m;
    incr started;
    Condition.broadcast c;
    while not !release do
      Condition.wait c m
    done;
    Mutex.unlock m;
    Ok []
  in
  let wait_started n =
    Mutex.lock m;
    while !started < n do
      Condition.wait c m
    done;
    Mutex.unlock m
  in
  let release_all () =
    Mutex.lock m;
    release := true;
    Condition.broadcast c;
    Mutex.unlock m
  in
  (runner, wait_started, release_all)

let test_backpressure_depth_one () =
  let runner, wait_started, release_all = blocking_runner () in
  let svc = Service.create ~domains:1 ~queue:1 ~retry_after:0.25 ~runner () in
  check Alcotest.int "capacity" 1 (Service.capacity svc);
  let j1 = ok (Service.submit svc (job_spec "swim")) in
  (* Wait until the single worker is inside job 1: the queue is now
     empty, so exactly one more admission fits. *)
  wait_started 1;
  let j2 = ok (Service.submit svc (job_spec "mgrid")) in
  (match Service.submit svc (job_spec "galgel") with
  | Error (Run.Queue_full { retry_after }) ->
      check (Alcotest.float 1e-12) "retry hint" 0.25 retry_after
  | Ok _ -> Alcotest.fail "third submit must bounce off the full queue"
  | Error e -> Alcotest.failf "expected Queue_full, got %s" (Run.error_message e));
  let st = Service.stats svc in
  check Alcotest.int "queued" 1 st.Service.queued;
  check Alcotest.int "running" 1 st.Service.running;
  check Alcotest.int "rejected" 1 st.Service.rejected;
  release_all ();
  ignore (ok (Service.await svc j1));
  ignore (ok (Service.await svc j2));
  Service.shutdown svc;
  (* Draining: both admitted jobs completed despite the rejection. *)
  let st = Service.stats svc in
  check Alcotest.int "completed" 2 st.Service.completed;
  match Service.submit svc (job_spec "swim") with
  | Error Run.Shutting_down -> ()
  | Ok _ | Error _ -> Alcotest.fail "post-shutdown submit must be Shutting_down"

let test_await_consumes () =
  let svc = Service.create ~domains:1 ~queue:4 () in
  let id = ok (Service.submit svc (job_spec ~schemes:[ Scheme.Base ] "swim")) in
  ignore (ok (Service.await svc id));
  (match Service.await svc id with
  | Error (Run.Protocol_error _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "second await must be Protocol_error");
  Service.shutdown svc

(* --- metered jobs: streamed samples integrate to the energy column --- *)

let test_meter_integral () =
  let svc = Service.create ~domains:1 ~queue:4 () in
  let acc : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let acc_mutex = Mutex.create () in
  let on_sample ~scheme (s : Dpm_sim.Meter.sample) =
    Mutex.lock acc_mutex;
    Hashtbl.replace acc scheme
      (Option.value ~default:0.0 (Hashtbl.find_opt acc scheme)
      +. (s.Dpm_sim.Meter.watts *. (s.Dpm_sim.Meter.t1 -. s.Dpm_sim.Meter.t0)));
    Mutex.unlock acc_mutex
  in
  let id = ok (Service.submit ~meter:0.1 ~on_sample svc (job_spec "swim")) in
  let outcome = ok (Service.await svc id) in
  Service.shutdown svc;
  List.iter
    (fun (s, (r : Dpm_sim.Result.t)) ->
      let name = Scheme.name s in
      let live = Option.value ~default:Float.nan (Hashtbl.find_opt acc name) in
      let energy = r.Dpm_sim.Result.energy in
      checkb
        (Printf.sprintf "%s live integral within 1e-6 relative" name)
        true
        (Float.abs (live -. energy) <= 1e-6 *. Float.max 1.0 energy))
    outcome.Service.results

(* --- typed service errors round-trip through JSON --- *)

let test_error_json_round_trip () =
  List.iter
    (fun e ->
      match Run.error_of_json (Run.error_to_json e) with
      | Ok e' -> checkb (Run.error_message e) true (e = e')
      | Error m -> Alcotest.failf "error round-trip: %s" m)
    [
      Run.Queue_full { retry_after = 1.5 };
      Run.Shutting_down;
      Run.Protocol_error "unknown op \"frobnicate\"";
      Run.Unknown_benchmark "nope";
      Run.Unknown_scheme "NOPE";
      Run.Invalid_faults "bad spec";
      Run.Malformed_trace "t.trace:3: parse";
      Run.Malformed_spec "missing schema";
      Run.Run_failure "Stack_overflow";
    ]

let test_create_validation () =
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | (_ : Service.t) -> Alcotest.fail "Service.create must reject")
    [
      (fun () -> Service.create ~domains:0 ());
      (fun () -> Service.create ~queue:(-1) ());
      (fun () -> Service.create ~retry_after:0.0 ());
    ]

(* --- the wire: spec in, report out, over a real Unix socket --- *)

let test_net_round_trip () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dpm-serve-test-%d.sock" (Unix.getpid ()))
  in
  let address = Service.Net.Unix_path path in
  let svc = Service.create ~domains:1 ~queue:4 () in
  let server = Thread.create (fun () -> Service.Net.serve svc address) () in
  let client = ok (Service.Net.connect address) in
  ignore (ok (Service.Net.ping client));
  let spec = job_spec "swim" in
  let samples = ref 0 in
  let on_sample ~scheme:_ (_ : Dpm_sim.Meter.sample) = incr samples in
  let id, report = ok (Service.Net.submit ~meter:0.1 ~on_sample client spec) in
  check Alcotest.int "first job id" 1 id;
  checkb "samples streamed" true (!samples > 0);
  (* The wire report is byte-identical to the in-process document of a
     fresh service running the same spec. *)
  let svc2 = Service.create ~domains:1 ~queue:4 () in
  let outcome = ok (Service.await svc2 (ok (Service.submit svc2 spec))) in
  Service.shutdown svc2;
  check Alcotest.string "wire report = in-process report"
    (Json.to_string outcome.Service.report)
    (Json.to_string report);
  let completed = ok (Service.Net.shutdown client) in
  check Alcotest.int "completed over the wire" 1 completed;
  Service.Net.close client;
  Thread.join server;
  checkb "socket file removed" false (Sys.file_exists path)

(* --- clients that hang up mid-job must not take the daemon down --- *)

let test_net_dropped_clients () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dpm-serve-drop-%d.sock" (Unix.getpid ()))
  in
  let address = Service.Net.Unix_path path in
  let svc = Service.create ~domains:1 ~queue:4 () in
  let server = Thread.create (fun () -> Service.Net.serve svc address) () in
  let client = ok (Service.Net.connect address) in
  ignore (ok (Service.Net.ping client));
  (* A raw client: one submit frame, then hang up after [linger] s. *)
  let drop ?meter ~linger spec =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    let oc = Unix.out_channel_of_descr fd in
    let meter =
      match meter with None -> [] | Some r -> [ ("meter", Json.Float r) ]
    in
    output_string oc
      (Json.to_string
         (Json.Obj
            ([ ("op", Json.Str "submit"); ("spec", ok (Run.to_json spec)) ]
            @ meter)));
    output_char oc '\n';
    flush oc;
    Thread.delay linger;
    close_out oc
  in
  drop ~meter:0.01 ~linger:0.05
    (job_spec ~schemes:[ Scheme.Base; Scheme.Cmdrpm ] "galgel");
  drop ~linger:0.0 (job_spec "swim");
  (* Both orphaned jobs run to completion, writing into closed sockets. *)
  let deadline = Unix.gettimeofday () +. 120.0 in
  while (Service.stats svc).Service.completed < 2 do
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "orphaned jobs never completed";
    Thread.delay 0.01
  done;
  let spec = job_spec "mgrid" in
  let _, report = ok (Service.Net.submit client spec) in
  let svc2 = Service.create ~domains:1 ~queue:4 () in
  let outcome = ok (Service.await svc2 (ok (Service.submit svc2 spec))) in
  Service.shutdown svc2;
  check Alcotest.string "third client's report"
    (Json.to_string outcome.Service.report)
    (Json.to_string report);
  check Alcotest.int "drained every job" 3 (ok (Service.Net.shutdown client));
  Service.Net.close client;
  Thread.join server

(* --- a spec the parser rejects is an error frame, not a dead connection --- *)

let test_net_malformed_spec () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dpm-serve-bad-%d.sock" (Unix.getpid ()))
  in
  let address = Service.Net.Unix_path path in
  let svc = Service.create ~domains:1 ~queue:4 () in
  let server = Thread.create (fun () -> Service.Net.serve svc address) () in
  let client = ok (Service.Net.connect address) in
  ignore (ok (Service.Net.ping client));
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let submit ?(extra = []) spec =
    output_string oc
      (Json.to_string
         (Json.Obj ([ ("op", Json.Str "submit"); ("spec", spec) ] @ extra)));
    output_char oc '\n';
    flush oc
  in
  let rec frame ~until =
    match input_line ic with
    | exception End_of_file -> Alcotest.fail "connection closed"
    | line -> (
        match Json.parse_string line with
        | Error m -> Alcotest.fail m
        | Ok j -> if until j then j else frame ~until)
  in
  let spec = ok (Run.to_json (job_spec ~schemes:[ Scheme.Base ] "galgel")) in
  let broken =
    match spec with
    | Json.Obj fields ->
        Json.Obj (fields @ [ ("sim", Json.Obj [ ("queue_depth", Json.Int 0) ]) ])
    | j -> j
  in
  submit broken;
  let err = frame ~until:(fun _ -> true) in
  check
    Alcotest.(option string)
    "malformed-spec frame" (Some "malformed-spec")
    (Option.bind (Json.member "error" err) Json.to_str);
  (* A meter that is not a number is a protocol error, not an
     unmetered job. *)
  submit ~extra:[ ("meter", Json.Str "2") ] spec;
  let err = frame ~until:(fun _ -> true) in
  check
    Alcotest.(option string)
    "non-number meter frame" (Some "protocol")
    (Option.bind (Json.member "error" err) Json.to_str);
  (* The same connection still serves the next job. *)
  submit spec;
  let last =
    frame ~until:(fun j ->
        Json.member "report" j <> None || Json.member "error" j <> None)
  in
  checkb "valid job reported" true
    (match Json.member "report" last with
    | Some r -> Dpm_core.Report.validate r = Ok ()
    | None -> false);
  close_in ic;
  check Alcotest.int "drained" 1 (ok (Service.Net.shutdown client));
  Service.Net.close client;
  Thread.join server

let test_address_strings () =
  (match Service.Net.address_of_string "127.0.0.1:4000" with
  | Service.Net.Tcp { host = "127.0.0.1"; port = 4000 } -> ()
  | _ -> Alcotest.fail "host:port parses as TCP");
  (match Service.Net.address_of_string "/tmp/x.sock" with
  | Service.Net.Unix_path "/tmp/x.sock" -> ()
  | _ -> Alcotest.fail "path parses as Unix socket");
  (* A colon without a numeric port is still a path. *)
  match Service.Net.address_of_string "dir:with/colon" with
  | Service.Net.Unix_path _ -> ()
  | _ -> Alcotest.fail "non-numeric port is a path"

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "parallel == serial (byte-identical)" `Slow
          test_parallel_equals_serial;
        Alcotest.test_case "daemon == direct exec" `Quick
          test_daemon_equals_direct_exec;
        Alcotest.test_case "backpressure at queue depth 1" `Quick
          test_backpressure_depth_one;
        Alcotest.test_case "await consumes the outcome" `Quick
          test_await_consumes;
        Alcotest.test_case "metered job integral" `Quick test_meter_integral;
        Alcotest.test_case "service error JSON round-trip" `Quick
          test_error_json_round_trip;
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "net round-trip over a Unix socket" `Slow
          test_net_round_trip;
        Alcotest.test_case "daemon survives clients that hang up" `Slow
          test_net_dropped_clients;
        Alcotest.test_case "malformed spec keeps the connection" `Slow
          test_net_malformed_spec;
        Alcotest.test_case "address strings" `Quick test_address_strings;
      ] );
  ]
