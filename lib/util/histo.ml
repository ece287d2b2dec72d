(* Geometric buckets over (lo, lo·γⁿ]; bucket 0 is (0, lo] and a
   dedicated counter holds exact zeros / non-positives.  lo = 1 ns and
   n = 640 cover every quantity we histogram (seconds, queue depths,
   retry counts) up to ~2.3e12 with γ ≈ 8% relative error. *)

let gamma = 1.08
let lo = 1e-9
let nbuckets = 640
let log_gamma = log gamma

type t = {
  counts : int array;
  mutable zeros : int;
  mutable count : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

let create () =
  {
    counts = Array.make nbuckets 0;
    zeros = 0;
    count = 0;
    sum = 0.0;
    mn = infinity;
    mx = neg_infinity;
  }

let copy t =
  {
    counts = Array.copy t.counts;
    zeros = t.zeros;
    count = t.count;
    sum = t.sum;
    mn = t.mn;
    mx = t.mx;
  }

let index v =
  if v <= lo then 0
  else
    let i = int_of_float (Float.ceil (log (v /. lo) /. log_gamma)) in
    if i < 0 then 0 else if i >= nbuckets then nbuckets - 1 else i

let add t v =
  if Float.is_nan v then ()
  else begin
    if v <= 0.0 then t.zeros <- t.zeros + 1
    else t.counts.(index v) <- t.counts.(index v) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    if v < t.mn then t.mn <- v;
    if v > t.mx then t.mx <- v
  end

let count t = t.count
let is_empty t = t.count = 0
let sum t = t.sum
let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
let min_value t = if t.count = 0 then 0.0 else t.mn
let max_value t = if t.count = 0 then 0.0 else t.mx

let upper i = lo *. (gamma ** float_of_int i)

let quantile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histo.quantile: p out of [0, 100]";
  if t.count = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.count))) in
    if rank <= t.zeros then Float.max 0.0 (min_value t)
    else begin
      let rec walk i seen =
        if i >= nbuckets then max_value t
        else
          let seen = seen + t.counts.(i) in
          if seen >= rank then
            (* Clamping to the exact extrema only tightens the bound. *)
            Float.min (max_value t) (Float.max (min_value t) (upper i))
          else walk (i + 1) seen
      in
      walk 0 t.zeros
    end
  end

let merge_into ~into t =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
  into.zeros <- into.zeros + t.zeros;
  into.count <- into.count + t.count;
  into.sum <- into.sum +. t.sum;
  if t.mn < into.mn then into.mn <- t.mn;
  if t.mx > into.mx then into.mx <- t.mx

let merge a b =
  let t = copy a in
  merge_into ~into:t b;
  t

let buckets t =
  let acc = ref [] in
  for i = nbuckets - 1 downto 0 do
    if t.counts.(i) > 0 then
      acc := ((if i = 0 then 0.0 else upper (i - 1)), upper i, t.counts.(i)) :: !acc
  done;
  if t.zeros > 0 then (0.0, 0.0, t.zeros) :: !acc else !acc

(* --- mergeable wire form ---

   Sparse [index, count] pairs plus the scalar moments.  The bucket
   geometry (gamma, lo, nbuckets) is a property of the code, so a
   document merges exactly with a live histogram as long as both sides
   run the same build; [of_json] rejects out-of-range indices, which is
   what an incompatible geometry would produce. *)

let to_json t =
  let pairs = ref [] in
  for i = nbuckets - 1 downto 0 do
    if t.counts.(i) > 0 then
      pairs := Json.Arr [ Json.Int i; Json.Int t.counts.(i) ] :: !pairs
  done;
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("zeros", Json.Int t.zeros);
      ("sum", Json.Float t.sum);
      ("min", Json.Float (min_value t));
      ("max", Json.Float (max_value t));
      ("buckets", Json.Arr !pairs);
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let need read k = Json.required read ~at:"Histo.of_json: " k j in
  let* count = need Json.integer "count" in
  let* zeros = need Json.integer "zeros" in
  let* sum = need Json.number "sum" in
  let* mn = need Json.number "min" in
  let* mx = need Json.number "max" in
  let* pairs = need Json.array "buckets" in
  let t = create () in
  t.count <- count;
  t.zeros <- zeros;
  t.sum <- sum;
  if count > 0 then begin
    t.mn <- mn;
    t.mx <- mx
  end;
  List.fold_left
    (fun acc pair ->
      let* () = acc in
      match Option.map (List.filter_map Json.to_int) (Json.to_list pair) with
      | Some [ i; c ] when i >= 0 && i < nbuckets && c >= 0 ->
          t.counts.(i) <- t.counts.(i) + c;
          Ok ()
      | _ -> Error "Histo.of_json: malformed bucket pair")
    (Ok ()) pairs
  |> Result.map (fun () -> t)
