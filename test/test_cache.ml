(* Tests for Dpm_cache.Lru. *)

module Lru = Dpm_cache.Lru

(* Keys are dense block numbers; a = 0, b = 1, c = 2. *)
let test_hit_miss_basic () =
  let a = 0 and b = 1 and c' = 2 in
  let c = Lru.create ~capacity:2 ~keys:3 in
  (match Lru.access c a with `Miss None -> () | _ -> Alcotest.fail "cold a");
  (match Lru.access c a with `Hit -> () | _ -> Alcotest.fail "hit a");
  (match Lru.access c b with `Miss None -> () | _ -> Alcotest.fail "cold b");
  (* Cache full: c evicts the least recently used, which is a. *)
  (match Lru.access c c' with
  | `Miss (Some 0) -> ()
  | _ -> Alcotest.fail "evict a");
  match Lru.access c a with
  | `Miss (Some 1) -> ()
  | _ -> Alcotest.fail "a was evicted, b is now LRU"

let test_promotion () =
  let c = Lru.create ~capacity:2 ~keys:4 in
  ignore (Lru.access c 1);
  ignore (Lru.access c 2);
  ignore (Lru.access c 1);
  (* 1 was promoted, so inserting 3 evicts 2. *)
  match Lru.access c 3 with
  | `Miss (Some 2) -> ()
  | _ -> Alcotest.fail "promotion failed"

let test_zero_capacity () =
  let c = Lru.create ~capacity:0 ~keys:1 in
  (match Lru.access c 0 with `Miss None -> () | _ -> Alcotest.fail "miss");
  (match Lru.access c 0 with
  | `Miss None -> ()
  | _ -> Alcotest.fail "still a miss");
  Alcotest.(check int) "length" 0 (Lru.length c)

let test_counters_and_clear () =
  let c = Lru.create ~capacity:4 ~keys:3 in
  ignore (Lru.access c 1);
  ignore (Lru.access c 1);
  ignore (Lru.access c 2);
  Alcotest.(check int) "hits" 1 (Lru.hits c);
  Alcotest.(check int) "misses" 2 (Lru.misses c);
  Lru.clear c;
  Alcotest.(check int) "cleared length" 0 (Lru.length c);
  Alcotest.(check int) "cleared hits" 0 (Lru.hits c);
  match Lru.access c 1 with `Miss None -> () | _ -> Alcotest.fail "cold after clear"

let test_mem_does_not_promote () =
  let c = Lru.create ~capacity:2 ~keys:4 in
  ignore (Lru.access c 1);
  ignore (Lru.access c 2);
  Alcotest.(check bool) "mem" true (Lru.mem c 1);
  (* mem must not promote 1; inserting 3 still evicts 1. *)
  match Lru.access c 3 with
  | `Miss (Some 1) -> ()
  | _ -> Alcotest.fail "mem promoted"

let test_negative_capacity () =
  Alcotest.check_raises "negative" (Invalid_argument "Lru.create: negative capacity")
    (fun () -> ignore (Lru.create ~capacity:(-1) ~keys:1))

(* Reference LRU on lists, for differential testing. *)
module Reference_lru = struct
  type t = { cap : int; mutable items : int list }

  let create cap = { cap; items = [] }

  let access t k =
    if List.mem k t.items then begin
      t.items <- k :: List.filter (fun x -> x <> k) t.items;
      `Hit
    end
    else begin
      t.items <- k :: t.items;
      if t.cap = 0 then begin
        t.items <- [];
        `Miss None
      end
      else if List.length t.items > t.cap then begin
        let rec split acc = function
          | [] -> (List.rev acc, None)
          | [ last ] -> (List.rev acc, Some last)
          | x :: rest -> split (x :: acc) rest
        in
        let kept, evicted = split [] t.items in
        t.items <- kept;
        `Miss evicted
      end
      else `Miss None
    end
end

let qcheck_lru_matches_reference =
  QCheck2.Test.make ~count:200 ~name:"lru: matches reference implementation"
    QCheck2.Gen.(
      pair (int_range 1 6) (list_size (int_bound 200) (int_bound 9)))
    (fun (cap, keys) ->
      let fast = Lru.create ~capacity:cap ~keys:10 in
      let slow = Reference_lru.create cap in
      List.for_all
        (fun k ->
          match (Lru.access fast k, Reference_lru.access slow k) with
          | `Hit, `Hit -> true
          | `Miss a, `Miss b -> a = b
          | _ -> false)
        keys)

let qcheck_lru_capacity_invariant =
  QCheck2.Test.make ~count:200 ~name:"lru: never exceeds capacity"
    QCheck2.Gen.(
      pair (int_range 0 8) (list_size (int_bound 300) (int_bound 20)))
    (fun (cap, keys) ->
      let c = Lru.create ~capacity:cap ~keys:21 in
      List.for_all
        (fun k ->
          ignore (Lru.access c k);
          Lru.length c <= cap)
        keys)

let qcheck_lru_hit_monotone_in_capacity =
  QCheck2.Test.make ~count:100
    ~name:"lru: more capacity never means fewer hits (sequential sweeps)"
    QCheck2.Gen.(pair (int_range 1 6) (int_range 1 20))
    (fun (cap, n) ->
      (* Cyclic sequential access of n distinct keys, three passes. *)
      let run cap =
        let c = Lru.create ~capacity:cap ~keys:n in
        for _ = 1 to 3 do
          for k = 0 to n - 1 do
            ignore (Lru.access c k)
          done
        done;
        Lru.hits c
      in
      run cap <= run (cap + 1) || run cap <= run (cap + 2))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "cache.lru",
      [
        Alcotest.test_case "hit/miss/evict" `Quick test_hit_miss_basic;
        Alcotest.test_case "promotion" `Quick test_promotion;
        Alcotest.test_case "zero capacity" `Quick test_zero_capacity;
        Alcotest.test_case "counters/clear" `Quick test_counters_and_clear;
        Alcotest.test_case "mem does not promote" `Quick test_mem_does_not_promote;
        Alcotest.test_case "negative capacity" `Quick test_negative_capacity;
        q qcheck_lru_matches_reference;
        q qcheck_lru_capacity_invariant;
        q qcheck_lru_hit_monotone_in_capacity;
      ] );
  ]
