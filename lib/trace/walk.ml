module Ir = Dpm_ir
module Plan = Dpm_layout.Plan
module Lru = Dpm_cache.Lru

type item = { var : string; lo : int; step : int; slots : int }

let closed x = invalid_arg ("Walk: unbound iterator " ^ x)

(* A top-level loop's origin and trip count. *)
let bounds (l : Ir.Loop.t) =
  let lo = Ir.Expr.eval closed l.lo and hi = Ir.Expr.eval closed l.hi in
  (lo, if hi < lo then 0 else ((hi - lo) / l.step) + 1)

let items (p : Ir.Program.t) =
  Array.of_list
    (List.map
       (function
         | Ir.Loop.For l ->
             let lo, trips = bounds l in
             { var = l.var; lo; step = l.step; slots = max trips 1 }
         | Ir.Loop.Stmt _ | Ir.Loop.Call _ ->
             { var = "<item>"; lo = 0; step = 1; slots = 1 })
       p.body)

(* --- The lowered program --- *)

(* A record's head packs its top-level item with one of these tags. *)
let tag_iteration = 0
let tag_read = 1
let tag_write = 2
let tag_spin_down = 3
let tag_spin_up = 4
let tag_set_rpm = 5
let head ~item tag = (item lsl 3) lor tag

(* A reference, resolved once: its subscripts as evaluators over the
   iterator slots, a reused index vector they fill, and the plan's element
   rule to a global block (the cache key); the unit is the block less
   [base].  [id] is the array's position among the plan's entries and
   [head] the log head of its misses. *)
type reference = {
  subscripts : (int array -> int) array;
  index : int array;
  block : int array -> int;
  base : int;
  array : string;
  id : int;
  kind : Request.kind;
  item : int;
  head : int;
}

type node =
  | Loop of {
      slot : int;
      lo : int array -> int;
      hi : int array -> int;
      step : int;
      body : node array;
    }
  | Stmt of { cycles : int; refs : reference array }
  | Call of { item : int; call : Ir.Loop.pm_call }

let array_names plan =
  Array.of_list
    (List.map
       (fun (e : Plan.entry) -> e.decl.Ir.Array_decl.name)
       (Plan.entries plan))

(* Iterators live in slots, one per loop depth, so the slot array holds
   exactly what the reference walk's environment holds (test/enumerate.ml).
   The binding rule is the reference walk's: a loop binds its iterator on
   entry and unbinds it on exit, even when it shadowed an outer one, so a
   later read of that name raises — when it executes, as every lowering
   error does. *)
let lower ~cost plan (p : Ir.Program.t) =
  let depth = ref 0 in
  let names = array_names plan in
  let id_of name =
    Option.value ~default:(-1) (Array.find_index (String.equal name) names)
  in
  let lower_expr bound =
    Ir.Expr.lower ~slot:(fun x ->
        match List.assoc_opt x bound with
        | Some slot -> slot
        | None -> invalid_arg ("Enumerate: unbound iterator " ^ x))
  in
  let lower_ref bound ~item ~kind (r : Ir.Reference.t) =
    let subscripts = Array.of_list (List.map (lower_expr bound) r.indices) in
    let block, base =
      match Plan.element_block plan r.array with
      | block -> (block, Plan.unit_global_block plan r.array 0)
      | exception Not_found -> ((fun _ -> raise Not_found), 0)
    in
    {
      subscripts;
      index = Array.make (Array.length subscripts) 0;
      block;
      base;
      array = r.array;
      id = id_of r.array;
      kind;
      item;
      head =
        head ~item
          (match kind with
          | Request.Read -> tag_read
          | Request.Write -> tag_write);
    }
  in
  (* Nodes in order, threading which iterators are bound after each. *)
  let rec lower_nodes bound ~item ~slot nodes =
    let _, lowered =
      List.fold_left
        (fun (bound, acc) node ->
          match node with
          | Ir.Loop.For l ->
              let lo = lower_expr bound l.lo and hi = lower_expr bound l.hi in
              depth := max !depth (slot + 1);
              let body =
                lower_nodes ((l.var, slot) :: bound) ~item ~slot:(slot + 1)
                  l.body
              in
              ( List.filter (fun (x, _) -> not (String.equal x l.var)) bound,
                Loop { slot; lo; hi; step = l.step; body } :: acc )
          | Ir.Loop.Stmt s ->
              let refs =
                List.map (lower_ref bound ~item ~kind:Request.Read) s.reads
                @ Option.to_list
                    (Option.map (lower_ref bound ~item ~kind:Request.Write) s.write)
              in
              ( bound,
                Stmt
                  {
                    cycles = Ir.Cost.stmt_cycles cost s;
                    refs = Array.of_list refs;
                  }
                :: acc )
          | Ir.Loop.Call call -> (bound, Call { item; call } :: acc))
        (bound, []) nodes
    in
    Array.of_list (List.rev lowered)
  in
  let top =
    Array.of_list
      (List.mapi
         (fun item node -> (lower_nodes [] ~item ~slot:0 [ node ]).(0))
         p.body)
  in
  (top, !depth)

(* The kernel behind {!run} and {!log}: a miss reports its lowered
   reference and unit, a call its top-level item. *)
let kernel ~cost ~cache_blocks ~iteration ~miss ~call (p : Ir.Program.t) plan
    =
  let items = items p in
  let top, depth = lower ~cost plan p in
  let cache = Lru.create ~capacity:cache_blocks ~keys:(Plan.blocks plan) in
  let slots = Array.make depth 0 in
  let loop_overhead = cost.Ir.Cost.loop_overhead in
  let cycles = ref 0 in
  let take () =
    let c = !cycles in
    cycles := 0;
    c
  in
  (* The last top-level loop's iterator, which a top-level statement
     reports. *)
  let last_iter = ref 0 in
  let touch r =
    let subscripts = r.subscripts and index = r.index in
    for k = 0 to Array.length subscripts - 1 do
      index.(k) <- subscripts.(k) slots
    done;
    let block = r.block index in
    if not (Lru.touch cache block) then
      miss ~cycles:(take ()) r (block - r.base)
  in
  let rec exec = function
    | Loop l ->
        let lo = l.lo slots and hi = l.hi slots in
        let v = ref lo in
        while !v <= hi do
          slots.(l.slot) <- !v;
          cycles := !cycles + loop_overhead;
          exec_body l.body;
          v := !v + l.step
        done
    | Stmt s ->
        cycles := !cycles + s.cycles;
        let refs = s.refs in
        for k = 0 to Array.length refs - 1 do
          touch refs.(k)
        done
    | Call c -> call ~cycles:(take ()) ~item:c.item c.call
  and exec_body body =
    for k = 0 to Array.length body - 1 do
      exec body.(k)
    done
  in
  Array.iteri
    (fun item node ->
      match node with
      | Loop l ->
          let { lo = origin; step; _ } = items.(item) in
          let lo = l.lo slots and hi = l.hi slots in
          let v = ref lo in
          while !v <= hi do
            slots.(0) <- !v;
            last_iter := !v;
            iteration ~cycles:(take ()) ~item
              ~ordinal:((!v - origin) / step)
              ~iter:!v;
            cycles := !cycles + loop_overhead;
            exec_body l.body;
            v := !v + l.step
          done
      | Stmt _ ->
          iteration ~cycles:(take ()) ~item ~ordinal:0 ~iter:!last_iter;
          exec node
      | Call _ -> exec node)
    top;
  take ()

let run ~cost ~cache_blocks ~iteration ~miss ~call p plan =
  kernel ~cost ~cache_blocks ~iteration
    ~miss:(fun ~cycles r unit ->
      miss ~cycles ~item:r.item ~array:r.array ~unit ~kind:r.kind)
    ~call:(fun ~cycles ~item:_ c -> call ~cycles c)
    p plan

(* --- The miss log --- *)

(* Four ints per record: head (item and tag), two payload fields and
   the integer cycles since the previous record.  An iteration's payload
   is its ordinal and iterator, a miss's its array id and unit, a call's
   its disk and (for [Set_rpm]) level. *)
type log = {
  program : Ir.Program.t;
  plan : Plan.t;
  cost : Ir.Cost.model;
  cache_blocks : int;
  records : int array;
  tail : int;
}

(* A growing record buffer, trimmed to size when the log is sealed. *)
type buffer = { mutable data : int array; mutable len : int }

let buffer capacity = { data = Array.make (4 * max capacity 16) 0; len = 0 }

let push b h x y cycles =
  let n = b.len in
  if n + 4 > Array.length b.data then begin
    let data = Array.make (2 * Array.length b.data) 0 in
    Array.blit b.data 0 data 0 n;
    b.data <- data
  end;
  let d = b.data in
  d.(n) <- h;
  d.(n + 1) <- x;
  d.(n + 2) <- y;
  d.(n + 3) <- cycles;
  b.len <- n + 4

let push_call b ~item ~cycles = function
  | Ir.Loop.Spin_down disk -> push b (head ~item tag_spin_down) disk 0 cycles
  | Ir.Loop.Spin_up disk -> push b (head ~item tag_spin_up) disk 0 cycles
  | Ir.Loop.Set_rpm { level; disk } ->
      push b (head ~item tag_set_rpm) disk level cycles

let sealed b =
  if b.len = Array.length b.data then b.data else Array.sub b.data 0 b.len

let log ~cost ~cache_blocks (p : Ir.Program.t) plan =
  Dpm_util.Telemetry.span
    ~args:(fun () -> [ ("program", p.name) ])
    Dpm_util.Telemetry.global "trace.walk"
    (fun () ->
      let b = buffer 1024 in
      let tail =
        kernel ~cost ~cache_blocks
          ~iteration:(fun ~cycles ~item ~ordinal ~iter ->
            push b (head ~item tag_iteration) ordinal iter cycles)
          ~miss:(fun ~cycles r unit -> push b r.head r.id unit cycles)
          ~call:(fun ~cycles ~item call -> push_call b ~item ~cycles call)
          p plan
      in
      { program = p; plan; cost; cache_blocks; records = sealed b; tail })

let program l = l.program
let plan l = l.plan
let cost l = l.cost

let iter l ~iteration ~miss ~call =
  let names = array_names l.plan and d = l.records in
  let k = ref 0 in
  while !k < Array.length d do
    let h = d.(!k) and x = d.(!k + 1) and y = d.(!k + 2) in
    let cycles = d.(!k + 3) and item = h lsr 3 in
    (match h land 7 with
    | 0 -> iteration ~cycles ~item ~ordinal:x ~iter:y
    | 1 -> miss ~cycles ~item ~array:names.(x) ~unit:y ~kind:Request.Read
    | 2 -> miss ~cycles ~item ~array:names.(x) ~unit:y ~kind:Request.Write
    | 3 -> call ~cycles (Ir.Loop.Spin_down x)
    | 4 -> call ~cycles (Ir.Loop.Spin_up x)
    | _ -> call ~cycles (Ir.Loop.Set_rpm { level = y; disk = x }));
    k := !k + 4
  done;
  l.tail

(* --- Calls at iteration boundaries: the rewrite and its splice --- *)

type points = (int * Ir.Loop.pm_call) list array

let points_at (points : points) item =
  if item < Array.length points then points.(item) else []

(* A boundary ordinal, clamped to the loop's range [0, trips]. *)
let clamp ~trips ordinal = max 0 (min ordinal trips)

(* Strip-mines a top-level loop at its points: the iterations with
   ordinals in [a, b) become one segment, and a point's calls sit
   between the segments it separates. *)
let split_loop (l : Ir.Loop.t) points =
  let lo, trips = bounds l in
  let segment a b =
    if b <= a then None
    else
      Some
        (Ir.Loop.For
           {
             l with
             lo = Ir.Expr.Const (lo + (a * l.step));
             hi = Ir.Expr.Const (lo + ((b - 1) * l.step));
           })
  in
  let nodes = ref [] in
  let cursor = ref 0 in
  List.iter
    (fun (ordinal, call) ->
      let ord = clamp ~trips ordinal in
      (match segment !cursor ord with
      | Some n -> nodes := n :: !nodes
      | None -> ());
      cursor := max !cursor ord;
      nodes := Ir.Loop.Call call :: !nodes)
    points;
  (match segment !cursor trips with
  | Some n -> nodes := n :: !nodes
  | None -> ());
  List.rev !nodes

let insert_calls points (p : Ir.Program.t) =
  let body =
    List.concat
      (List.mapi
         (fun item node ->
           match (points_at points item, node) with
           | [], _ -> [ node ]
           | pts, Ir.Loop.For l -> split_loop l pts
           | pts, (Ir.Loop.Stmt _ | Ir.Loop.Call _) ->
               List.map (fun (_, call) -> Ir.Loop.Call call) pts @ [ node ])
         p.body)
  in
  Ir.Program.with_body p body

(* One pass over the records, item by item, renumbering each record's
   item as the rewrite numbers the nodes.  A boundary's calls wait in
   [pending] for the next record (or the tail): the first takes that
   record's cycles, which is what a walk of the rewrite charges it. *)
let splice l points =
  let program = insert_calls points l.program in
  let src = l.records and nrecords = Array.length l.records / 4 in
  let b =
    buffer
      (nrecords + Array.fold_left (fun n pts -> n + List.length pts) 0 points)
  in
  let next = ref 0 in
  let fresh () =
    let i = !next in
    incr next;
    i
  in
  let pending = ref [] in
  let defer call = pending := (fresh (), call) :: !pending in
  (* The cycles left to the record that follows [pending]. *)
  let place cycles =
    match List.rev !pending with
    | [] -> cycles
    | (item, call) :: rest ->
        push_call b ~item ~cycles call;
        List.iter (fun (item, call) -> push_call b ~item ~cycles:0 call) rest;
        pending := [];
        0
  in
  let k = ref 0 in
  let in_item i = !k < nrecords && src.(4 * !k) lsr 3 = i in
  (* Copies the item's records under its new number [item]. *)
  let copy i ~item =
    while in_item i do
      let r = 4 * !k in
      let cycles = place src.(r + 3) in
      push b (head ~item (src.(r) land 7)) src.(r + 1) src.(r + 2) cycles;
      incr k
    done
  in
  List.iteri
    (fun i node ->
      match (points_at points i, node) with
      | [], _ -> copy i ~item:(fresh ())
      | pts, Ir.Loop.For l ->
          let _, trips = bounds l in
          let rest = ref pts and segment = ref (-1) and origin = ref 0 in
          (* Defers the calls on boundaries up to ordinal [x]; true if
             there were any, which starts a new segment at [x]. *)
          let rec cut x =
            match !rest with
            | (ordinal, call) :: more when clamp ~trips ordinal <= x ->
                defer call;
                rest := more;
                ignore (cut x : bool);
                true
            | _ -> false
          in
          while in_item i do
            let r = 4 * !k in
            let tag = src.(r) land 7 and x = src.(r + 1) in
            if tag = tag_iteration && (cut x || !segment < 0) then begin
              segment := fresh ();
              origin := x
            end;
            let x = if tag = tag_iteration then x - !origin else x in
            let cycles = place src.(r + 3) in
            push b (head ~item:!segment tag) x src.(r + 2) cycles;
            incr k
          done;
          List.iter (fun (_, call) -> defer call) !rest
      | pts, (Ir.Loop.Stmt _ | Ir.Loop.Call _) ->
          List.iter (fun (_, call) -> defer call) pts;
          copy i ~item:(fresh ()))
    l.program.body;
  let tail = place l.tail in
  { l with program; records = sealed b; tail }
