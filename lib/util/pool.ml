type t = {
  mutex : Mutex.t;
  wake : Condition.t;  (* signalled when a job is queued or on shutdown *)
  jobs : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t array;
}

let clamp lo hi v = max lo (min hi v)

let initial_domains () =
  match Sys.getenv_opt "DPM_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> clamp 1 64 n
      | None -> 1)
  | None -> clamp 1 8 (Domain.recommended_domain_count ())

(* Process-wide default, set once at startup (CLI --domains); reads after
   that are racy-but-benign, so a plain ref suffices under the OCaml
   memory model (no tearing on immediate ints). *)
let default = ref (-1)

let default_domains () =
  if !default < 0 then default := initial_domains ();
  !default

let set_default_domains n = default := max 1 n

let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.jobs && not pool.closed do
    Condition.wait pool.wake pool.mutex
  done;
  if Queue.is_empty pool.jobs then Mutex.unlock pool.mutex (* closed *)
  else begin
    let job = Queue.pop pool.jobs in
    Mutex.unlock pool.mutex;
    job ();
    worker_loop pool
  end

let create ?(domains = default_domains ()) () =
  let pool =
    {
      mutex = Mutex.create ();
      wake = Condition.create ();
      jobs = Queue.create ();
      closed = false;
      workers = [||];
    }
  in
  if domains > 1 then
    pool.workers <-
      Array.init domains (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let size pool = Array.length pool.workers

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.closed <- true;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.mutex;
  Array.iter Domain.join pool.workers;
  pool.workers <- [||]

(* One batch: n tasks, a slot per task, a countdown signalled back to the
   submitter.  Each slot is written by exactly one worker and read only
   after the countdown reaches zero (the batch mutex provides the
   happens-before edge), so slot access needs no further synchronisation. *)
type 'b outcome =
  | Pending
  | Done of 'b
  | Failed of exn * Printexc.raw_backtrace

let run pool f xs =
  let check_open () =
    Mutex.lock pool.mutex;
    let closed = pool.closed in
    Mutex.unlock pool.mutex;
    if closed then invalid_arg "Pool.run: pool is shut down"
  in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when size pool = 0 ->
      check_open ();
      List.map f xs
  | _ ->
      check_open ();
      let items = Array.of_list xs in
      let n = Array.length items in
      let slots = Array.make n Pending in
      let batch_mutex = Mutex.create () in
      let batch_done = Condition.create () in
      let remaining = ref n in
      (* Lowest index that has failed so far ([n] while none has).  A
         task is skipped only when a lower-indexed one already failed,
         so the lowest-indexed failure always runs and is the one
         re-raised, whatever order the workers pick tasks in. *)
      let first_failed = ref n in
      let task i () =
        let cancel =
          Mutex.lock batch_mutex;
          let c = !first_failed < i in
          Mutex.unlock batch_mutex;
          c
        in
        let outcome =
          if cancel then Pending
          else
            (* Each job is a telemetry span on its worker's track: with
               --trace, every domain shows its queue of grid tasks. *)
            match Telemetry.span Telemetry.global "pool.task" (fun () -> f items.(i)) with
            | v -> Done v
            | exception e -> Failed (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock batch_mutex;
        slots.(i) <- outcome;
        (match outcome with
        | Failed _ -> first_failed := min !first_failed i
        | _ -> ());
        decr remaining;
        if !remaining = 0 then Condition.signal batch_done;
        Mutex.unlock batch_mutex
      in
      Mutex.lock pool.mutex;
      for i = 0 to n - 1 do
        Queue.add (task i) pool.jobs
      done;
      Condition.broadcast pool.wake;
      Mutex.unlock pool.mutex;
      Mutex.lock batch_mutex;
      while !remaining > 0 do
        Condition.wait batch_done batch_mutex
      done;
      Mutex.unlock batch_mutex;
      (* Deterministic error choice: the lowest-indexed failure wins. *)
      Array.iter
        (function
          | Failed (e, bt) -> Printexc.raise_with_backtrace e bt | _ -> ())
        slots;
      Array.to_list
        (Array.map
           (function
             | Done v -> v
             | Pending | Failed _ -> assert false (* no failure, no cancel *))
           slots)

let map ?(domains = default_domains ()) f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when domains <= 1 -> List.map f xs
  | _ ->
      let pool = create ~domains:(min domains (List.length xs)) () in
      Fun.protect
        ~finally:(fun () -> shutdown pool)
        (fun () -> run pool f xs)
