(* A recency list threaded through two arrays indexed by key: [prev.(k)]
   points towards the most recently used entry and [next.(k)] towards
   the least recently used one, [-1] ending the list on either side.  A
   key that is not resident has [prev.(k) = absent]. *)
let absent = -2

type t = {
  cap : int;
  prev : int array;
  next : int array;
  mutable head : int; (* most recently used *)
  mutable tail : int; (* least recently used *)
  mutable length : int;
  mutable hit_count : int;
  mutable miss_count : int;
}

let create ~capacity ~keys =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  if keys < 0 then invalid_arg "Lru.create: negative key count";
  {
    cap = capacity;
    prev = Array.make keys absent;
    next = Array.make keys (-1);
    head = -1;
    tail = -1;
    length = 0;
    hit_count = 0;
    miss_count = 0;
  }

let capacity t = t.cap
let length t = t.length

let check t k =
  if k < 0 || k >= Array.length t.prev then invalid_arg "Lru: key out of range"

let mem t k =
  check t k;
  t.prev.(k) <> absent

let unlink t k =
  let p = t.prev.(k) and n = t.next.(k) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t k =
  t.prev.(k) <- -1;
  t.next.(k) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- k else t.tail <- k;
  t.head <- k

(* One access: [hit] on a hit, else the evicted key or [-1] for none. *)
let hit = -2

let step t k =
  check t k;
  if t.prev.(k) <> absent then begin
    t.hit_count <- t.hit_count + 1;
    if t.head <> k then begin
      unlink t k;
      push_front t k
    end;
    hit
  end
  else begin
    t.miss_count <- t.miss_count + 1;
    if t.cap = 0 then -1
    else begin
      let evicted =
        if t.length >= t.cap then begin
          let lru = t.tail in
          unlink t lru;
          t.prev.(lru) <- absent;
          t.length <- t.length - 1;
          lru
        end
        else -1
      in
      push_front t k;
      t.length <- t.length + 1;
      evicted
    end
  end

let access t k =
  match step t k with
  | -2 -> `Hit
  | -1 -> `Miss None
  | evicted -> `Miss (Some evicted)

let touch t k = step t k = hit

let clear t =
  let k = ref t.head in
  while !k >= 0 do
    let n = t.next.(!k) in
    t.prev.(!k) <- absent;
    k := n
  done;
  t.head <- -1;
  t.tail <- -1;
  t.length <- 0;
  t.hit_count <- 0;
  t.miss_count <- 0

let hits t = t.hit_count
let misses t = t.miss_count
