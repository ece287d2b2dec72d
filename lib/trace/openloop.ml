(* Open-loop multi-tenant workloads: a seeded arrival plan over source
   workloads, and a k-way merge of per-tenant streams onto one shared
   think-time clock.  See openloop.mli for the model. *)

module Rng = Dpm_util.Rng

type arrival = Poisson of float | Bursty of { rate : float; burst : int }
type t = { arrival : arrival; jobs : int; zipf : float; seed : int }

let fail fmt = Format.kasprintf invalid_arg ("Openloop: " ^^ fmt)

let make ?(arrival = Poisson 1.0) ?(jobs = 4) ?(zipf = 1.0) ?(seed = 0) () =
  (match arrival with
  | (Poisson rate | Bursty { rate; _ })
    when not (Float.is_finite rate && rate > 0.0) ->
      fail "arrival rate must be finite and > 0 (got %g)" rate
  | Bursty { burst; _ } when burst < 1 ->
      fail "burst must be >= 1 (got %d)" burst
  | _ -> ());
  if jobs < 1 then fail "jobs must be >= 1 (got %d)" jobs;
  if not (Float.is_finite zipf && zipf >= 0.0) then
    fail "zipf exponent must be finite and >= 0 (got %g)" zipf;
  { arrival; jobs; zipf; seed }

(* Key=value syntax, mirroring Fault.of_string: stable canonical order,
   floats printed with round-trip precision so a descriptor survives the
   spec JSON bit-exactly. *)

let float_str x =
  let s = Printf.sprintf "%.17g" x in
  (* Prefer the shortest representation that still round-trips. *)
  let short = Printf.sprintf "%g" x in
  if float_of_string short = x then short else s

let to_string ?(sources = []) t =
  List.iter
    (fun s ->
      if s = "" || String.contains s ',' || String.contains s ':' then
        fail "invalid source name %S" s)
    sources;
  let rate, burst =
    match t.arrival with
    | Poisson r -> (r, None)
    | Bursty { rate; burst } -> (rate, Some burst)
  in
  String.concat ","
    (List.concat
       [
         [ Printf.sprintf "rate=%s" (float_str rate) ];
         (match burst with
         | None -> []
         | Some b -> [ Printf.sprintf "burst=%d" b ]);
         [
           Printf.sprintf "jobs=%d" t.jobs;
           Printf.sprintf "zipf=%s" (float_str t.zipf);
           Printf.sprintf "seed=%d" t.seed;
         ];
         (match sources with
         | [] -> []
         | _ -> [ "sources=" ^ String.concat ":" sources ]);
       ])

let of_string s =
  let ( let* ) = Result.bind in
  let module Kv = Dpm_util.Kv in
  let step acc (k, v) =
    let* rate, burst, jobs, zipf, seed, sources = acc in
    match String.lowercase_ascii k with
    | "rate" ->
        let* f = Kv.float k v in
        Ok (Some f, burst, jobs, zipf, seed, sources)
    | "burst" ->
        let* b = Kv.int k v in
        Ok (rate, Some b, jobs, zipf, seed, sources)
    | "jobs" ->
        let* j = Kv.int k v in
        Ok (rate, burst, Some j, zipf, seed, sources)
    | "zipf" ->
        let* z = Kv.float k v in
        Ok (rate, burst, jobs, Some z, seed, sources)
    | "seed" ->
        let* sd = Kv.int k v in
        Ok (rate, burst, jobs, zipf, Some sd, sources)
    | "sources" -> Ok (rate, burst, jobs, zipf, seed, Kv.clauses ~sep:':' v)
    | _ -> Error (Printf.sprintf "unknown key %S" k)
  in
  let parsed =
    let* fields = Kv.pairs ~sep:',' s in
    List.fold_left step (Ok (None, None, None, None, None, [])) fields
  in
  let* rate, burst, jobs, zipf, seed, sources =
    Result.map_error (fun m -> "open-loop: " ^ m) parsed
  in
  match rate with
  | None -> Error "open-loop: missing required key \"rate\""
  | Some rate -> (
      let arrival =
        match burst with
        | None -> Poisson rate
        | Some burst -> Bursty { rate; burst }
      in
      match make ~arrival ?jobs ?zipf ?seed () with
      | t -> Ok (t, sources)
      | exception Invalid_argument msg -> Error msg)

(* Deterministic expansion of the descriptor: arrival times and source
   picks draw from independent splits of the seed, so changing the job
   count never perturbs which sources early jobs picked. *)
let plan t ~nsources =
  if nsources <= 0 then fail "plan: nsources must be > 0 (got %d)" nsources;
  let root = Rng.create t.seed in
  let arr_rng = Rng.split root "arrivals" in
  let pick_rng = Rng.split root "sources" in
  (* Zipf weights over the source list; zipf = 0 degenerates to uniform. *)
  let weights =
    Array.init nsources (fun k -> float_of_int (k + 1) ** -.t.zipf)
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let pick () =
    let u = Rng.float pick_rng total in
    let k = ref 0 and acc = ref 0.0 in
    while
      !k < nsources - 1
      &&
      (acc := !acc +. weights.(!k);
       u >= !acc)
    do
      incr k
    done;
    !k
  in
  (* Exponential inter-arrival draw; Rng.float is on [0, 1) so the log
     argument stays in (0, 1]. *)
  let exp_draw rate = -.log (1.0 -. Rng.float arr_rng 1.0) /. rate in
  let starts = Array.make t.jobs 0.0 in
  (match t.arrival with
  | Poisson rate ->
      let clock = ref 0.0 in
      for j = 0 to t.jobs - 1 do
        clock := !clock +. exp_draw rate;
        starts.(j) <- !clock
      done
  | Bursty { rate; burst } ->
      (* Cluster starts at rate/burst keep the long-run job rate at
         [rate]; each cluster launches up to [burst] tenants at once. *)
      let cluster_rate = rate /. float_of_int burst in
      let clock = ref 0.0 in
      let j = ref 0 in
      while !j < t.jobs do
        clock := !clock +. exp_draw cluster_rate;
        let n = min burst (t.jobs - !j) in
        for _ = 1 to n do
          starts.(!j) <- !clock;
          incr j
        done
      done);
  let out = Array.make t.jobs (0.0, 0) in
  for j = 0 to t.jobs - 1 do
    out.(j) <- (starts.(j), pick ())
  done;
  out

(* --- k-way merge ------------------------------------------------------ *)

module Stream = Trace.Stream
module Chunk = Stream.Chunk

type cursor = {
  stream : Stream.t;
  mutable chunk : Chunk.t;  (* the tenant's chunk, read up to [idx] *)
  mutable idx : int;
  mutable clock : float;  (* virtual time of the last emitted arrival *)
  mutable arrival : float;  (* virtual arrival of the current head row *)
  mutable alive : bool;
}

(* Position [c.arrival] on the cursor's next row, pulling the tenant's
   next chunk only once the current one is fully read; marks the cursor
   dead at stream exhaustion. *)
let rec advance c =
  if c.idx < Chunk.length c.chunk then
    c.arrival <- c.clock +. Chunk.think c.chunk c.idx
  else
    match Stream.next_soa c.stream with
    | Some chunk ->
        c.chunk <- chunk;
        c.idx <- 0;
        advance c
    | None -> c.alive <- false

let merge ?(batch = Stream.default_batch) ?program tenants =
  if tenants = [] then fail "merge: empty tenant list";
  List.iter
    (fun (start, _) ->
      if start < 0.0 then fail "merge: negative start time %g" start)
    tenants;
  let ndisks =
    List.fold_left (fun acc (_, s) -> max acc (Stream.ndisks s)) 1 tenants
  in
  let nblocks =
    lazy
      (List.fold_left (fun acc (_, s) -> max acc (Stream.nblocks s)) 0 tenants)
  in
  let program =
    match program with
    | Some p -> p
    | None ->
        let names =
          List.map (fun (_, s) -> Stream.program s) tenants
          |> List.sort_uniq compare
        in
        Printf.sprintf "open-loop(%s)" (String.concat "+" names)
  in
  let no_rows = Chunk.create 1 in
  let cursors =
    List.map
      (fun (start, stream) ->
        let c =
          {
            stream;
            chunk = no_rows;
            idx = 0;
            clock = start;
            arrival = start;
            alive = true;
          }
        in
        advance c;
        c)
      tenants
    |> Array.of_list
  in
  (* Earliest head row wins; ties resolve to the lowest tenant index, so
     the interleaving is a deterministic function of the tenant list
     alone.  [-1] once every tenant is exhausted. *)
  let best () =
    let b = ref (-1) in
    Array.iteri
      (fun k c ->
        if c.alive && (!b < 0 || not (cursors.(!b).arrival <= c.arrival)) then
          b := k)
      cursors;
    !b
  in
  let out = Chunk.create batch and last = ref 0.0 in
  let rec fill () =
    if Chunk.length out < batch then begin
      let k = best () in
      if k >= 0 then begin
        let c = cursors.(k) in
        (* The global minimum arrival is nondecreasing (each pop
           replaces a head with a later one), so the delta is >= 0 up to
           the defensive clamp. *)
        let d = c.arrival -. !last in
        Chunk.push_row out c.chunk c.idx ~think:(if d > 0.0 then d else 0.0);
        last := c.arrival;
        c.clock <- c.arrival;
        c.idx <- c.idx + 1;
        advance c;
        fill ()
      end
    end
  in
  (* Merged tail: the last tenant to finish defines end-of-run on the
     shared clock.  Read only at exhaustion, when every tenant is
     exhausted and its own tail think is known. *)
  let tail =
    lazy
      (Array.fold_left
         (fun acc c -> max acc (c.clock +. Stream.tail_think c.stream -. !last))
         0.0 cursors)
  in
  Stream.make ~batch ~tail ~nblocks ~program ~ndisks (fun () ->
      Chunk.clear out;
      fill ();
      Some out)
