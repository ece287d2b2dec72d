(* The fleet simulation service: a bounded-admission job queue executed
   by worker loops scheduled over the OCaml 5 domain pool, plus a
   line-framed JSON socket protocol (Net).  See service.mli for the
   contract and DESIGN.md §16 for the architecture. *)

module Sim = Dpm_sim
module Pool = Dpm_util.Pool
module Json = Dpm_util.Json

type outcome = {
  job : int;
  label : string;
  results : (Scheme.t * Sim.Result.t) list;
  report : Json.t;
}

type stats = { queued : int; running : int; completed : int; rejected : int }
type state = Queued | Running | Done of (outcome, Run.error) result

type job = {
  id : int;
  spec : Run.spec;
  meter : float option;
  on_sample : (scheme:string -> Sim.Meter.sample -> unit) option;
  mutable state : state;
}

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
      (* One condvar for every state change: job available, job done,
         admission closed.  Waiters re-check their own predicate. *)
  pending : job Queue.t;
  jobs : (int, job) Hashtbl.t;
  queue : int;
  retry_after : float;
  runner : Run.spec -> ((Scheme.t * Sim.Result.t) list, Run.error) result;
  mutable next_id : int;
  mutable accepting : bool;
  mutable running : int;
  mutable completed : int;
  mutable rejected : int;
  pool : Pool.t;
  mutable dispatcher : Thread.t option;
}

let capacity t = t.queue

(* Execute one job: observe the spec (timeline sinks, and meters for
   metered jobs) through the service's runner (default [Run.exec_all] —
   which is what makes daemon runs bit-identical to direct execution),
   and assemble the dpm-report/1 document.  No shared collectors: the
   report must be a function of the job alone, concurrent neighbours
   notwithstanding. *)
let execute t job =
  let ( let* ) = Result.bind in
  let* results, sinks, _ =
    Run.observe ~run:t.runner ?meter:job.meter ?on_sample:job.on_sample
      job.spec
  in
  let* label, setup = Run.describe job.spec in
  let report =
    Report.document ~label ~mode:setup.Experiment.mode
      ~version:setup.Experiment.version ~faults:setup.Experiment.faults
      ~sim:setup.Experiment.sim
      ~timeline_of:(fun s -> Sim.Timeline.contents (List.assoc s sinks))
      results
  in
  Ok { job = job.id; label; results; report }

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    if not (Queue.is_empty t.pending) then Some (Queue.pop t.pending)
    else if not t.accepting then None
    else begin
      Condition.wait t.cond t.mutex;
      next ()
    end
  in
  match next () with
  | None -> Mutex.unlock t.mutex
  | Some job ->
      job.state <- Running;
      t.running <- t.running + 1;
      Mutex.unlock t.mutex;
      let result =
        try execute t job
        with exn -> Error (Run.Run_failure (Printexc.to_string exn))
      in
      Mutex.lock t.mutex;
      job.state <- Done result;
      t.running <- t.running - 1;
      t.completed <- t.completed + 1;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      worker_loop t

let create ?domains ?(queue = 64) ?(retry_after = 1.0)
    ?(runner = Run.exec_all) () =
  let domains =
    match domains with Some d -> d | None -> Pool.default_domains ()
  in
  if domains < 1 then
    invalid_arg "Service.create: domains must be >= 1";
  if queue < 0 then invalid_arg "Service.create: queue must be >= 0";
  if retry_after <= 0.0 then
    invalid_arg "Service.create: retry_after must be > 0";
  let t =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      pending = Queue.create ();
      jobs = Hashtbl.create 16;
      queue;
      retry_after;
      runner;
      next_id = 1;
      accepting = true;
      running = 0;
      completed = 0;
      rejected = 0;
      pool = Pool.create ~domains ();
      dispatcher = None;
    }
  in
  (* The dispatcher thread feeds [domains] worker loops into the pool;
     each loop occupies one pool worker until shutdown (with one domain
     the pool is degenerate and the single loop runs on the dispatcher
     thread itself). *)
  let d =
    Thread.create
      (fun () ->
        ignore
          (Pool.run t.pool
             (fun () -> worker_loop t)
             (List.init domains (fun _ -> ()))))
      ()
  in
  t.dispatcher <- Some d;
  t

let submit ?meter ?on_sample t spec =
  Mutex.lock t.mutex;
  let result =
    if not t.accepting then Error Run.Shutting_down
    else if Queue.length t.pending >= t.queue then begin
      t.rejected <- t.rejected + 1;
      Error (Run.Queue_full { retry_after = t.retry_after })
    end
    else begin
      let id = t.next_id in
      t.next_id <- id + 1;
      let job = { id; spec; meter; on_sample; state = Queued } in
      Hashtbl.replace t.jobs id job;
      Queue.push job t.pending;
      Condition.broadcast t.cond;
      Ok id
    end
  in
  Mutex.unlock t.mutex;
  result

let await t id =
  Mutex.lock t.mutex;
  let result =
    match Hashtbl.find_opt t.jobs id with
    | None ->
        Error
          (Run.Protocol_error (Printf.sprintf "unknown job id %d" id))
    | Some job ->
        let rec wait () =
          match job.state with
          | Done r -> r
          | Queued | Running ->
              Condition.wait t.cond t.mutex;
              wait ()
        in
        let r = wait () in
        Hashtbl.remove t.jobs id;
        r
  in
  Mutex.unlock t.mutex;
  result

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      queued = Queue.length t.pending;
      running = t.running;
      completed = t.completed;
      rejected = t.rejected;
    }
  in
  Mutex.unlock t.mutex;
  s

let shutdown t =
  Mutex.lock t.mutex;
  if t.accepting then begin
    t.accepting <- false;
    Condition.broadcast t.cond
  end;
  (* Drain guarantee: every admitted job finishes before the workers are
     allowed to exit and the pool is torn down. *)
  while not (Queue.is_empty t.pending && t.running = 0) do
    Condition.wait t.cond t.mutex
  done;
  Mutex.unlock t.mutex;
  (match t.dispatcher with
  | Some d ->
      t.dispatcher <- None;
      Thread.join d
  | None -> ());
  Pool.shutdown t.pool

(* --- wire protocol ---------------------------------------------------- *)

module Net = struct
  (* Aliases: the client half below reuses the op names. *)
  let svc_submit = submit
  let svc_await = await
  let svc_stats = stats
  let svc_shutdown = shutdown

  type address = Unix_path of string | Tcp of { host : string; port : int }

  let address_of_string s =
    match String.rindex_opt s ':' with
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some port when host <> "" && port > 0 -> Tcp { host; port }
        | _ -> Unix_path s)
    | None -> Unix_path s

  let address_to_string = function
    | Unix_path p -> p
    | Tcp { host; port } -> Printf.sprintf "%s:%d" host port

  let socket_domain = function
    | Unix_path _ -> Unix.PF_UNIX
    | Tcp _ -> Unix.PF_INET

  let sockaddr = function
    | Unix_path p -> Unix.ADDR_UNIX p
    | Tcp { host; port } ->
        let ip =
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found ->
              failwith (Printf.sprintf "unknown host %S" host))
        in
        Unix.ADDR_INET (ip, port)

  (* One frame = one JSON object on one line.  The per-connection mutex
     serializes handler-thread frames against worker-thread sample
     frames (their writes are also ordered by the job's lifecycle, but
     the lock keeps the invariant local and obvious).  Once the peer
     hangs up a write raises [Sys_error] (EPIPE: [serve] ignores
     SIGPIPE) and the connection goes quiet, so its job still runs to
     completion instead of failing inside a sample callback. *)
  let write_frame oc =
    let mu = Mutex.create () and live = ref true in
    fun j ->
      Mutex.lock mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock mu)
        (fun () ->
          if !live then
            try
              output_string oc (Json.to_string j);
              output_char oc '\n';
              flush oc
            with Sys_error _ -> live := false)

  let sample_frame ~job ~scheme (s : Sim.Meter.sample) =
    Json.Obj
      [
        ("job", Json.Int job);
        ("scheme", Json.Str scheme);
        ( "sample",
          Json.Obj
            [
              ("disk", Json.Int s.Sim.Meter.disk);
              ("index", Json.Int s.Sim.Meter.index);
              ("t0", Json.Float s.Sim.Meter.t0);
              ("t1", Json.Float s.Sim.Meter.t1);
              ("watts", Json.Float s.Sim.Meter.watts);
            ] );
      ]

  let obj_fields = function Json.Obj l -> l | j -> [ ("value", j) ]

  let handle_submit service write j =
    let protocol m = write (Run.error_to_json (Run.Protocol_error m)) in
    match (Json.member "spec" j, Json.number ~at:"submit: " "meter" j) with
    | None, _ -> protocol "submit: missing spec"
    | _, Error m -> protocol m
    | Some sj, Ok meter -> (
        match Run.of_json sj with
        | Error e -> write (Run.error_to_json e)
        | Ok spec -> (
            (* Samples may start streaming before [submit] returns the
               job id; gate them so the "accepted" frame (which names
               the id) always goes out first. *)
            let gate = Mutex.create () in
            let gcond = Condition.create () in
            let announced = ref None in
            let on_sample ~scheme sample =
              Mutex.lock gate;
              while !announced = None do
                Condition.wait gcond gate
              done;
              let id = Option.get !announced in
              Mutex.unlock gate;
              write (sample_frame ~job:id ~scheme sample)
            in
            let on_sample =
              match meter with Some _ -> Some on_sample | None -> None
            in
            match svc_submit ?meter ?on_sample service spec with
            | Error e -> write (Run.error_to_json e)
            | Ok id -> (
                write
                  (Json.Obj
                     [ ("ok", Json.Str "accepted"); ("job", Json.Int id) ]);
                Mutex.lock gate;
                announced := Some id;
                Condition.broadcast gcond;
                Mutex.unlock gate;
                match svc_await service id with
                | Ok outcome ->
                    write
                      (Json.Obj
                         [
                           ("job", Json.Int id); ("report", outcome.report);
                         ])
                | Error e ->
                    write
                      (Json.Obj
                         (("job", Json.Int id)
                         :: obj_fields (Run.error_to_json e))))))

  let handle_conn service stop fd =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr (Unix.dup fd) in
    let write = write_frame oc in
    let rec loop () =
      match input_line ic with
      | exception (End_of_file | Sys_error _) -> ()
      | line ->
          (match Json.parse_string line with
          | Error m ->
              write
                (Run.error_to_json
                   (Run.Protocol_error ("invalid frame: " ^ m)))
          | Ok j -> (
              match Option.bind (Json.member "op" j) Json.to_str with
              | Some "ping" -> write (Json.Obj [ ("ok", Json.Str "pong") ])
              | Some "submit" -> handle_submit service write j
              | Some "shutdown" ->
                  (* Drain first, then acknowledge: once the client sees
                     the reply, every admitted job has completed. *)
                  svc_shutdown service;
                  stop := true;
                  let st = svc_stats service in
                  write
                    (Json.Obj
                       [
                         ("ok", Json.Str "shutdown");
                         ("completed", Json.Int st.completed);
                       ])
              | Some op ->
                  write
                    (Run.error_to_json
                       (Run.Protocol_error
                          (Printf.sprintf "unknown op %S" op)))
              | None ->
                  write
                    (Run.error_to_json (Run.Protocol_error "missing op"))));
          loop ()
    in
    Fun.protect
      ~finally:(fun () ->
        close_out_noerr oc;
        close_in_noerr ic)
      loop

  let serve ?(backlog = 16) service address =
    (* A client that hangs up must cost only its own frames, not the
       process and every other client's jobs with it. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (match address with
    | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    let lfd = Unix.socket (socket_domain address) Unix.SOCK_STREAM 0 in
    (match address with
    | Tcp _ -> Unix.setsockopt lfd Unix.SO_REUSEADDR true
    | Unix_path _ -> ());
    Unix.bind lfd (sockaddr address);
    Unix.listen lfd backlog;
    let stop = ref false in
    let handlers = ref [] in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close lfd with Unix.Unix_error _ -> ());
        (match address with
        | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
        | Tcp _ -> ());
        List.iter Thread.join !handlers)
      (fun () ->
        while not !stop do
          (* Bounded select so the stop flag set by a shutdown handler
             is observed without another connection arriving. *)
          match Unix.select [ lfd ] [] [] 0.2 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | [], _, _ -> ()
          | _ ->
              if not !stop then begin
                let fd, _ = Unix.accept lfd in
                handlers :=
                  Thread.create (handle_conn service stop) fd :: !handlers
              end
        done)

  (* --- client ----------------------------------------------------- *)

  type client = { ic : in_channel; oc : out_channel }

  let connect ?(retries = 50) address =
    let rec go n =
      let fd = Unix.socket (socket_domain address) Unix.SOCK_STREAM 0 in
      match Unix.connect fd (sockaddr address) with
      | () -> Ok fd
      | exception
          Unix.Unix_error
            ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
        when n > 0 ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Thread.delay 0.1;
          go (n - 1)
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Run.Protocol_error
               (Printf.sprintf "connect %s: %s"
                  (address_to_string address)
                  (Unix.error_message e)))
      | exception Failure m ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Run.Protocol_error m)
    in
    match go retries with
    | Error _ as e -> e
    | Ok fd ->
        Ok
          {
            ic = Unix.in_channel_of_descr fd;
            oc = Unix.out_channel_of_descr (Unix.dup fd);
          }

  let close c =
    close_out_noerr c.oc;
    close_in_noerr c.ic

  let send c j =
    output_string c.oc (Json.to_string j);
    output_char c.oc '\n';
    flush c.oc

  let read_frame c =
    match input_line c.ic with
    | exception (End_of_file | Sys_error _) ->
        Error (Run.Protocol_error "connection closed")
    | line -> (
        match Json.parse_string line with
        | Ok j -> Ok j
        | Error m -> Error (Run.Protocol_error ("invalid frame: " ^ m)))

  let error_of_frame j =
    match Run.error_of_json j with
    | Ok e -> e
    | Error m -> Run.Protocol_error ("unrecognized frame: " ^ m)

  let ( let* ) = Result.bind

  let ping c =
    send c (Json.Obj [ ("op", Json.Str "ping") ]);
    let* j = read_frame c in
    match Option.bind (Json.member "ok" j) Json.to_str with
    | Some "pong" -> Ok ()
    | _ -> Error (error_of_frame j)

  let sample_of_json j =
    let num k = Option.bind (Json.member k j) Json.to_float in
    let int k = Option.bind (Json.member k j) Json.to_int in
    match (int "disk", int "index", num "t0", num "t1", num "watts") with
    | Some disk, Some index, Some t0, Some t1, Some watts ->
        Some { Sim.Meter.disk; index; t0; t1; watts }
    | _ -> None

  let submit ?meter ?on_sample c spec =
    let* sj = Run.to_json spec in
    send c
      (Json.Obj
         ([ ("op", Json.Str "submit"); ("spec", sj) ]
         @
         match meter with
         | None -> []
         | Some r -> [ ("meter", Json.Float r) ]));
    let rec loop id =
      let* j = read_frame c in
      if Option.is_some (Json.member "error" j) then Error (error_of_frame j)
      else if Option.is_some (Json.member "report" j) then
        let id =
          match Option.bind (Json.member "job" j) Json.to_int with
          | Some i -> i
          | None -> id
        in
        Ok (id, Option.get (Json.member "report" j))
      else if Option.is_some (Json.member "sample" j) then begin
        (match on_sample with
        | None -> ()
        | Some f -> (
            match
              ( Option.bind (Json.member "scheme" j) Json.to_str,
                Option.bind (Json.member "sample" j) sample_of_json )
            with
            | Some scheme, Some sample -> f ~scheme sample
            | _ -> ()));
        loop id
      end
      else
        match Option.bind (Json.member "ok" j) Json.to_str with
        | Some "accepted" ->
            loop
              (match Option.bind (Json.member "job" j) Json.to_int with
              | Some i -> i
              | None -> id)
        | _ -> Error (Run.Protocol_error "unexpected frame")
    in
    loop (-1)

  let shutdown c =
    send c (Json.Obj [ ("op", Json.Str "shutdown") ]);
    let* j = read_frame c in
    match Option.bind (Json.member "ok" j) Json.to_str with
    | Some "shutdown" ->
        Ok
          (Option.value ~default:0
             (Option.bind (Json.member "completed" j) Json.to_int))
    | _ -> Error (error_of_frame j)
end
