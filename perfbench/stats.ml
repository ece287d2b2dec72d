(* Order statistics for the benchmark's own figures. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The three quartile cut points by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)], so spreads read the same here as in
   any script that checks them.  Needs at least two samples. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  Array.init 3 (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float (4 - delta)) +. (s.(j) *. float delta)) /. 4.0)

(* Nearest-rank [p]th percentile (p in 1..100).  A tail percentile is
   only as good as the samples beyond it, so it is refused unless at
   least [min_beyond] samples rank above it: p95 needs 200 samples at
   the default of 10, p90 needs 100, p50 needs 20. *)
let percentile ?(min_beyond = 10) p a =
  let n = Array.length a in
  if p < 1 || p > 100 then invalid_arg "Stats.percentile: p outside 1..100";
  let rank = max 1 (((p * n) + 99) / 100) in
  if n = 0 || n - rank < min_beyond then
    Error
      (Printf.sprintf
         "p%d refused: %d samples leave %d beyond it, %d needed" p n
         (max 0 (n - rank)) min_beyond)
  else Ok (sorted a).(rank - 1)
