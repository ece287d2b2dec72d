(* In-memory spans of the traced run, written out at exit as Chrome
   trace_event JSON (load it in Perfetto or chrome://tracing). *)

type span = {
  id : int;
  name : string;
  job : int;  (** The job the span belongs to; spans of one job share it. *)
  parent : int;  (** Id of the enclosing span, or -1. *)
  start : float;
  stop : float;
}

type t = {
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;
}

let create () = { spans = []; next = 0; stack = [] }

(* Runs [f] as a span nested in the innermost open one. *)
let with_span t ~job name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start = Probe.now () in
  let close () =
    let stop = Probe.now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; job; parent; start; stop } :: t.spans
  in
  match f () with
  | x ->
      close ();
      x
  | exception e ->
      close ();
      raise e

(* Records a span timed elsewhere (client frame timestamps); returns its
   id, for use as a parent. *)
let add t ~job ?(parent = -1) name ~start ~stop =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; name; job; parent; start; stop } :: t.spans;
  id

let all t = List.rev t.spans

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus the part of it that its
   children cover.  Overlapping children count once. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

let write_chrome path spans =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
             %.3f, \"dur\": %.3f, \"args\": {\"job\": %d, \"id\": %d, \
             \"parent\": %d}}"
            (if i = 0 then "" else ",\n")
            s.name
            ((s.start -. t0) *. 1e6)
            ((s.stop -. s.start) *. 1e6)
            s.job s.id s.parent)
        spans;
      output_string oc "\n], \"displayTimeUnit\": \"ms\"}\n")
