type t = (float * float) list
(* Invariant: sorted by [lo]; for consecutive (l1,h1) (l2,h2): h1 < l2;
   every pair satisfies lo < hi. *)

let empty = []
let is_empty s = s = []
let to_list s = s

let rec is_sorted = function
  | (a, _) :: ((b, _) :: _ as rest) -> compare a b <= 0 && is_sorted rest
  | [ _ ] | [] -> true

let normalize pairs =
  let pairs = List.filter (fun (lo, hi) -> hi > lo) pairs in
  (* The sort is stable, so an already sorted list (the usual input: a
     replay's busy intervals) is its own result. *)
  let sorted =
    if is_sorted pairs then pairs
    else List.sort (fun (a, _) (b, _) -> compare a b) pairs
  in
  (* Merge overlapping or touching intervals. *)
  let rec merge = function
    | [] -> []
    | [ x ] -> [ x ]
    | (l1, h1) :: (l2, h2) :: rest ->
        if l2 <= h1 then merge ((l1, max h1 h2) :: rest)
        else (l1, h1) :: merge ((l2, h2) :: rest)
  in
  merge sorted

let of_list pairs = normalize pairs
let singleton lo hi = if hi <= lo then [] else [ (lo, hi) ]
let add s lo hi = normalize ((lo, hi) :: s)
let union a b = normalize (a @ b)

let inter a b =
  let rec go a b acc =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | (l1, h1) :: ra, (l2, h2) :: rb ->
        let lo = max l1 l2 and hi = min h1 h2 in
        let acc = if hi > lo then (lo, hi) :: acc else acc in
        if h1 < h2 then go ra b acc else go a rb acc
  in
  go a b []

(* One pass: [s] is sorted and disjoint with non-empty members, so the
   gaps come out sorted, non-empty and separated by [s]'s members —
   already normal. *)
let complement ~lo ~hi s =
  let rec go cursor = function
    | [] -> singleton cursor hi
    | (l, h) :: rest ->
        let before = singleton cursor (min l hi) in
        before @ go (max cursor h) rest
  in
  go lo s

let measure s = List.fold_left (fun a (lo, hi) -> a +. (hi -. lo)) 0.0 s
let count = List.length
let mem s x = List.exists (fun (lo, hi) -> x >= lo && x < hi) s

let gaps_longer_than threshold s =
  List.filter (fun (lo, hi) -> hi -. lo > threshold) s

let pp ppf s =
  Format.fprintf ppf "{";
  List.iteri
    (fun i (lo, hi) ->
      if i > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "[%g,%g)" lo hi)
    s;
  Format.fprintf ppf "}"
