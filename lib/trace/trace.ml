exception Parse_error of string

let max_disks = 4096

(* The one representation between trace producers and the simulator.
   The replay bodies read rows by index out of parallel Bigarray
   columns: a [float64] column for think times (unboxed on read) and
   native-[int] columns for everything else.  One tag per row encodes
   the constructor; [disk] doubles as the directive's disk and [block]
   as the [Set_rpm] level — directives use none of the IO-only columns,
   which stay 0. *)
module Chunk = struct
  type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = {
    mutable len : int;
    think : floats;
    tag : ints;
    disk : ints;
    block : ints;
    bytes : ints;
    nest : ints;
    iter : ints;
  }

  let tag_read = 0
  let tag_write = 1
  let tag_spin_down = 2
  let tag_spin_up = 3
  let tag_set_rpm = 4
  let is_io_tag tag = tag <= tag_write

  (* Unchecked: capacity 0 is the exactly sized store of an empty
     trace. *)
  let alloc capacity =
    let open Bigarray in
    let ints () = Array1.create int c_layout capacity in
    {
      len = 0;
      think = Array1.create float64 c_layout capacity;
      tag = ints ();
      disk = ints ();
      block = ints ();
      bytes = ints ();
      nest = ints ();
      iter = ints ();
    }

  let create capacity =
    if capacity <= 0 then
      invalid_arg "Trace.Stream.Chunk.create: non-positive capacity";
    alloc capacity

  let capacity c = Bigarray.Array1.dim c.tag
  let length c = c.len
  let clear c = c.len <- 0
  let think c i : float = Bigarray.Array1.get c.think i
  let tag c i = Bigarray.Array1.get c.tag i
  let disk c i = Bigarray.Array1.get c.disk i
  let block c i = Bigarray.Array1.get c.block i
  let bytes c i = Bigarray.Array1.get c.bytes i
  let nest c i = Bigarray.Array1.get c.nest i
  let iter c i = Bigarray.Array1.get c.iter i

  let set c i (e : Request.event) =
    let open Bigarray.Array1 in
    match e with
    | Request.Io io ->
        unsafe_set c.think i io.Request.think;
        unsafe_set c.tag i
          (match io.Request.kind with
          | Request.Read -> tag_read
          | Request.Write -> tag_write);
        unsafe_set c.disk i io.Request.disk;
        unsafe_set c.block i io.Request.block;
        unsafe_set c.bytes i io.Request.bytes;
        unsafe_set c.nest i io.Request.nest;
        unsafe_set c.iter i io.Request.iter
    | Request.Pm { think; directive } ->
        unsafe_set c.think i think;
        (match directive with
        | Request.Spin_down d ->
            unsafe_set c.tag i tag_spin_down;
            unsafe_set c.disk i d;
            unsafe_set c.block i 0
        | Request.Spin_up d ->
            unsafe_set c.tag i tag_spin_up;
            unsafe_set c.disk i d;
            unsafe_set c.block i 0
        | Request.Set_rpm { level; disk } ->
            unsafe_set c.tag i tag_set_rpm;
            unsafe_set c.disk i disk;
            unsafe_set c.block i level);
        unsafe_set c.bytes i 0;
        unsafe_set c.nest i 0;
        unsafe_set c.iter i 0

  let push c e =
    if c.len >= capacity c then
      invalid_arg "Trace.Stream.Chunk.push: chunk full";
    set c c.len e;
    c.len <- c.len + 1

  let push_row dst src i ~think =
    if dst.len >= capacity dst then
      invalid_arg "Trace.Stream.Chunk.push_row: chunk full";
    let open Bigarray.Array1 in
    let j = dst.len in
    set dst.think j think;
    set dst.tag j (get src.tag i);
    set dst.disk j (get src.disk i);
    set dst.block j (get src.block i);
    set dst.bytes j (get src.bytes i);
    set dst.nest j (get src.nest i);
    set dst.iter j (get src.iter i);
    dst.len <- j + 1

  (* Every row of [src] onto the end of [dst], which must have room. *)
  let append dst src =
    let n = src.len and pos = dst.len in
    if pos + n > capacity dst then
      invalid_arg "Trace.Stream.Chunk.append: chunk full";
    let col a b = Bigarray.Array1.(blit (sub a 0 n) (sub b pos n)) in
    col src.think dst.think;
    col src.tag dst.tag;
    col src.disk dst.disk;
    col src.block dst.block;
    col src.bytes dst.bytes;
    col src.nest dst.nest;
    col src.iter dst.iter;
    dst.len <- pos + n

  let get c i : Request.event =
    if i < 0 || i >= c.len then
      invalid_arg "Trace.Stream.Chunk.get: index out of bounds";
    let think = think c i in
    let tag = tag c i in
    if is_io_tag tag then
      Request.Io
        {
          Request.think;
          disk = disk c i;
          block = block c i;
          bytes = bytes c i;
          kind = (if tag = tag_read then Request.Read else Request.Write);
          nest = nest c i;
          iter = iter c i;
        }
    else if tag = tag_spin_down then
      Request.Pm { think; directive = Request.Spin_down (disk c i) }
    else if tag = tag_spin_up then
      Request.Pm { think; directive = Request.Spin_up (disk c i) }
    else
      Request.Pm
        { think; directive = Request.Set_rpm { level = block c i; disk = disk c i } }

  let of_events events =
    let c = alloc (Array.length events) in
    Array.iter (push c) events;
    c

  (* Zero-copy view of [len] rows starting at [pos]: the columns are
     [Bigarray.Array1.sub] windows sharing the parent's storage, so a
     chunked consumer of a trace's store pays no per-event copy.
     Mutating a view mutates the parent. *)
  let sub c pos len =
    let open Bigarray.Array1 in
    {
      len;
      think = sub c.think pos len;
      tag = sub c.tag pos len;
      disk = sub c.disk pos len;
      block = sub c.block pos len;
      bytes = sub c.bytes pos len;
      nest = sub c.nest pos len;
      iter = sub c.iter pos len;
    }

  let to_events c = Array.init c.len (get c)
end

(* The one check a trace passes before anything replays it, shared by
   [make] (and [build], [Stream.to_trace]) and the file reader: [None]
   when the header or row is replayable, else why not. *)
let header_error ~ndisks ~tail =
  if ndisks <= 0 then Some "non-positive disk count"
  else if ndisks > max_disks then
    Some
      (Printf.sprintf "disk count %d above Trace.max_disks (%d)" ndisks
         max_disks)
  else if not (Float.is_finite tail && tail >= 0.0) then
    Some "tail think time not finite and >= 0"
  else None

let row_error ~ndisks c i =
  let think = Chunk.think c i and tag = Chunk.tag c i in
  let disk = Chunk.disk c i and block = Chunk.block c i in
  if not (Float.is_finite think && think >= 0.0) then
    Some "think time not finite and >= 0"
  else if Chunk.is_io_tag tag then
    if disk < 0 || disk >= ndisks then Some "request disk out of range"
    else if block < 0 then Some "negative request block"
    else if Chunk.bytes c i < 0 then Some "negative request size"
    else None
  else if disk < 0 || disk >= ndisks then Some "directive disk out of range"
  else if tag = Chunk.tag_set_rpm && block < 0 then Some "negative RPM level"
  else None

type t = {
  program : string;
  ndisks : int;
  store : Chunk.t;  (* exactly [event_count] rows *)
  tail_think : float;
}

(* Alias so [Stream]'s own [t] can still name the materialized type. *)
type trace = t

let of_store ~program ~ndisks ~tail_think store =
  let fail why = invalid_arg ("Trace.make: " ^ why) in
  Option.iter fail (header_error ~ndisks ~tail:tail_think);
  for i = 0 to Chunk.length store - 1 do
    Option.iter fail (row_error ~ndisks store i)
  done;
  { program; ndisks; store; tail_think }

let make ?(tail_think = 0.0) ~program ~ndisks events =
  let store = Chunk.alloc (List.length events) in
  List.iter (Chunk.push store) events;
  of_store ~program ~ndisks ~tail_think store

(* The rows of [chunks], newest chunk first, copied in order into one
   exactly sized store. *)
let concat chunks =
  let store =
    Chunk.alloc (List.fold_left (fun n c -> n + Chunk.length c) 0 chunks)
  in
  List.iter (Chunk.append store) (List.rev chunks);
  store

(* Rows land in fixed-size chunks as they are emitted; the one copy into
   the exact store happens when the producer returns. *)
let build_chunk = 4096

let build ~program ~ndisks produce =
  let full = ref [] and buf = ref (Chunk.alloc build_chunk) in
  let emit e =
    if Chunk.length !buf = build_chunk then begin
      full := !buf :: !full;
      buf := Chunk.alloc build_chunk
    end;
    Chunk.push !buf e
  in
  let tail_think = produce ~emit in
  of_store ~program ~ndisks ~tail_think (concat (!buf :: !full))

let program t = t.program
let ndisks t = t.ndisks
let tail_think t = t.tail_think
let events t = Chunk.to_events t.store
let event_count t = Chunk.length t.store

let fold_rows f acc c =
  let acc = ref acc in
  for i = 0 to Chunk.length c - 1 do
    acc := f !acc c i
  done;
  !acc

let is_io c i = Chunk.is_io_tag (Chunk.tag c i)

let io_count t =
  fold_rows (fun n c i -> if is_io c i then n + 1 else n) 0 t.store

let pm_count t = event_count t - io_count t

let total_bytes t =
  fold_rows
    (fun n c i -> if is_io c i then n + Chunk.bytes c i else n)
    0 t.store

let total_think t =
  fold_rows (fun acc c i -> acc +. Chunk.think c i) t.tail_think t.store

let io_events t =
  List.filter_map
    (function Request.Io io -> Some io | Request.Pm _ -> None)
    (Array.to_list (events t))

let disks_used t =
  List.sort_uniq compare
    (fold_rows
       (fun acc c i -> if is_io c i then Chunk.disk c i :: acc else acc)
       [] t.store)

let without_pm t =
  let store = Chunk.alloc (io_count t) and pending = ref 0.0 in
  for i = 0 to Chunk.length t.store - 1 do
    let think = Chunk.think t.store i in
    if is_io t.store i then begin
      Chunk.push_row store t.store i ~think:(think +. !pending);
      pending := 0.0
    end
    else pending := !pending +. think
  done;
  { t with store; tail_think = t.tail_think +. !pending }

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# program=%s ndisks=%d tail=%.9f\n" t.program t.ndisks
        t.tail_think;
      for i = 0 to Chunk.length t.store - 1 do
        output_string oc (Request.to_line (Chunk.get t.store i) ^ "\n")
      done)

(* Highest IO block number + 1 over a chunk's rows, folded from [acc] —
   the stripe-unit address space fault plans are drawn over.  Every
   producer's [nblocks] is this scan over the rows it yields, so
   fault-injected streaming replays stay byte-identical to materialized
   ones. *)
let max_block_rows =
  fold_rows (fun acc c i ->
      if is_io c i then max acc (Chunk.block c i + 1) else acc)

module Stream = struct
  module Chunk = Chunk

  type nonrec t = {
    program : string;
    ndisks : int;
    batch : int;
    nblocks : int Lazy.t;
    tail : float Lazy.t;  (* forced only once known or exhausted *)
    pull : unit -> Chunk.t option;
    mutable exhausted : bool;
  }

  let default_batch = 4096
  let program s = s.program
  let ndisks s = s.ndisks
  let batch s = s.batch
  let nblocks s = Lazy.force s.nblocks

  let tail_think s =
    if s.exhausted || Lazy.is_val s.tail then Lazy.force s.tail
    else
      invalid_arg
        "Trace.Stream.tail_think: unknown until the stream is exhausted"

  let make ?(batch = default_batch) ~tail ~nblocks ~program ~ndisks pull =
    if batch <= 0 then invalid_arg "Trace.Stream.make: non-positive batch";
    if ndisks <= 0 then
      invalid_arg "Trace.Stream.make: non-positive disk count";
    { program; ndisks; batch; nblocks; tail; pull; exhausted = false }

  let next_soa s =
    if s.exhausted then None
    else
      match s.pull () with
      | Some c when Chunk.length c > 0 -> Some c
      | Some _ | None ->
          s.exhausted <- true;
          None

  let rec fold_chunks f acc s =
    match next_soa s with None -> acc | Some c -> fold_chunks f (f acc c) s

  let iter_rows f s =
    fold_chunks
      (fun () c ->
        for i = 0 to Chunk.length c - 1 do
          f c i
        done)
      () s

  let next s = Option.map Chunk.to_events (next_soa s)
  let iter f s = iter_rows (fun c i -> f (Chunk.get c i)) s

  let of_trace ?(batch = default_batch) (tr : trace) =
    let n = Chunk.length tr.store in
    let pos = ref 0 in
    make ~batch ~tail:(Lazy.from_val tr.tail_think)
      ~nblocks:(lazy (max_block_rows 0 tr.store))
      ~program:tr.program ~ndisks:tr.ndisks
      (fun () ->
        if !pos >= n then None
        else begin
          let len = min batch (n - !pos) in
          let p = !pos in
          pos := p + len;
          Some (Chunk.sub tr.store p len)
        end)

  (* --- Incremental parse of the line-oriented trace format --- *)

  let parse_error path lineno msg =
    raise (Parse_error (Printf.sprintf "%s:%d: %s" path lineno msg))

  let read_header path ic =
    let header =
      try input_line ic with End_of_file -> parse_error path 1 "empty file"
    in
    let program, ndisks, tail =
      try
        Scanf.sscanf header "# program=%s@ ndisks=%d tail=%f" (fun p n t ->
            (p, n, t))
      with Scanf.Scan_failure _ | End_of_file | Failure _ ->
        parse_error path 1
          "malformed header (expected '# program=NAME ndisks=N tail=SECONDS')"
    in
    Option.iter (parse_error path 1) (header_error ~ndisks ~tail);
    (program, ndisks, tail)

  (* One buffer, refilled in place by each pull.  [nblocks] is a second
     pass over the file, forced only when a fault spec is active. *)
  let rec of_file ?(batch = default_batch) path =
    let buf = Chunk.create batch in
    let ic = open_in path in
    let program, ndisks, tail =
      try read_header path ic
      with e ->
        close_in_noerr ic;
        raise e
    in
    let lineno = ref 1 and closed = ref false in
    let finish () =
      if not !closed then begin
        closed := true;
        close_in ic
      end
    in
    let fail why =
      finish ();
      parse_error path !lineno why
    in
    let rec fill () =
      if Chunk.length buf < batch then
        match input_line ic with
        | exception End_of_file -> finish ()
        | line ->
            incr lineno;
            if String.trim line <> "" then begin
              (match Request.of_line line with
              | e -> Chunk.push buf e
              | exception Failure msg -> fail msg);
              Option.iter fail (row_error ~ndisks buf (Chunk.length buf - 1))
            end;
            fill ()
    in
    make ~batch ~tail:(Lazy.from_val tail)
      ~nblocks:(lazy (fold_chunks max_block_rows 0 (of_file ~batch path)))
      ~program ~ndisks
      (fun () ->
        if !closed then None
        else begin
          Chunk.clear buf;
          fill ();
          Some buf
        end)

  let to_trace s =
    let chunks =
      fold_chunks
        (fun acc c ->
          let copy = Chunk.alloc (Chunk.length c) in
          Chunk.append copy c;
          copy :: acc)
        [] s
    in
    of_store ~program:s.program ~ndisks:s.ndisks ~tail_think:(tail_think s)
      (concat chunks)
end

let load path = Stream.to_trace (Stream.of_file path)
