let rec is_sorted = function
  | (a, _) :: ((b, _) :: _ as rest) -> compare a b <= 0 && is_sorted rest
  | [ _ ] | [] -> true

let normalize pairs =
  let pairs = List.filter (fun (lo, hi) -> hi > lo) pairs in
  let sorted =
    if is_sorted pairs then pairs
    else List.sort (fun (a, _) (b, _) -> compare a b) pairs
  in
  let rec merge = function
    | [] -> []
    | [ x ] -> [ x ]
    | (l1, h1) :: (l2, h2) :: rest ->
        if l2 <= h1 then merge ((l1, max h1 h2) :: rest)
        else (l1, h1) :: merge ((l2, h2) :: rest)
  in
  merge sorted

let singleton lo hi = if hi <= lo then [] else [ (lo, hi) ]

let complement ~lo ~hi s =
  let rec go cursor = function
    | [] -> singleton cursor hi
    | (l, h) :: rest -> singleton cursor (min l hi) @ go (max cursor h) rest
  in
  go lo s

let measure s = List.fold_left (fun a (lo, hi) -> a +. (hi -. lo)) 0.0 s
