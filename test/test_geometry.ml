(* Tests for the cache table's geometries: the d-left layout with
   [ways >= 1] and the built-in TinyLFU admission filter.

   The load-bearing properties:
   - degenerate equivalence: a 1-way table IS the paper's
     direct-mapped cache — byte-for-byte against a reference model of
     the slot, access-bit and admission rules, on hit/miss/eviction
     sequences, packed lookup encodings and counters;
   - differential model checks: every geometry agrees with a reference
     Hashtbl model on randomized op sequences (cached values are never
     stale, occupancy follows the insert/invalidate ledger, hit + miss
     counters account for every lookup);
   - count-min sketch invariants: estimates never undercount (within a
     sample period) and saturate at 15. *)

module Cache = Switchv2p.Cache
module Tinylfu = Switchv2p.Tinylfu
module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let vip = Vip.of_int
let pip = Pip.of_int

(* --- d-left unit tests --- *)

let test_dleft_create_validation () =
  Alcotest.check_raises "zero ways"
    (Invalid_argument "Cache.create: ways must be positive") (fun () ->
      ignore (Cache.create ~ways:0 ~slots:8 ()));
  Alcotest.check_raises "negative slots"
    (Invalid_argument "Cache.create: negative slots") (fun () ->
      ignore (Cache.create ~ways:2 ~slots:(-2) ()));
  checki "rounds down to a multiple of ways" 6
    (Cache.slots (Cache.create ~ways:3 ~slots:8 ()));
  checki "rounds a sketch-filtered table too" 8
    (Cache.slots (Cache.create ~ways:4 ~tinylfu:true ~slots:10 ()))

let test_dleft_lookup_after_insert () =
  let c = Cache.create ~ways:4 ~slots:64 () in
  (match Cache.insert c ~admission:`All (vip 1) (pip 10) with
  | Cache.Inserted None -> ()
  | _ -> Alcotest.fail "expected clean insert");
  let r = Cache.lookup c (vip 1) in
  checkb "hit" true (r <> Cache.miss);
  checki "value" 10 (Pip.to_int (Cache.hit_pip r));
  checkb "fresh entry bit clear" false (Cache.hit_bit r);
  let r2 = Cache.lookup c (vip 1) in
  checkb "second hit sees bit" true (Cache.hit_bit r2);
  checki "hits" 2 (Cache.hits c);
  checki "ways" 4 (Cache.ways c);
  checki "slots" 64 (Cache.slots c)

(* Find [n] keys that collide with key 0 in every way of [c]'s shape
   (so each insert must either fill another way or evict). *)
let colliding_keys ~d ~sub n =
  let way_slots v =
    List.init d (fun i ->
        (i, Cache.mix (v lxor (i * 0x27220A95)) mod sub))
  in
  let target = way_slots 0 in
  let rec go v acc =
    if List.length acc = n then List.rev acc
    else if v > 1_000_000 then Alcotest.fail "not enough collisions"
    else if way_slots v = target then go (v + 1) (v :: acc)
    else go (v + 1) acc
  in
  go 1 []

let test_dleft_fills_ways_before_evicting () =
  let d = 3 and sub = 8 in
  let c = Cache.create ~ways:d ~slots:(d * sub) () in
  ignore (Cache.insert c ~admission:`All (vip 0) (pip 100));
  let ks = colliding_keys ~d ~sub (d - 1) in
  (* Each full-collision key lands in a fresh way: no eviction until
     all d ways of the bucket are valid. *)
  List.iter
    (fun k ->
      match Cache.insert c ~admission:`All (vip k) (pip k) with
      | Cache.Inserted None -> ()
      | _ -> Alcotest.fail "expected empty-way fill")
    ks;
  checki "all ways occupied" d (Cache.occupancy c);
  List.iter
    (fun k -> checkb "resident" true (Cache.peek c (vip k) <> None))
    (0 :: ks)

let test_dleft_admission_and_victims () =
  let d = 2 and sub = 8 in
  let c = Cache.create ~ways:d ~slots:(d * sub) () in
  let ks = colliding_keys ~d ~sub 3 in
  let k0 = List.nth ks 0 and k1 = List.nth ks 1 and k2 = List.nth ks 2 in
  ignore (Cache.insert c ~admission:`All (vip k0) (pip 1));
  ignore (Cache.insert c ~admission:`All (vip k1) (pip 2));
  (* Both access bits set: conservative admission must reject. Order
     matters — k1's lookup probes (and conflict-clears) k0's way-0
     line on the way to way 1, so touch k1 first, then k0, whose
     lookup stops at way 0. *)
  ignore (Cache.lookup c (vip k1));
  ignore (Cache.lookup c (vip k0));
  checkb "A-bit-clear rejects when all set" true
    (Cache.insert c ~admission:`A_bit_clear (vip k2) (pip 3) = Cache.Rejected);
  checki "rejection counted" 1 (Cache.rejections c);
  (* `All falls back to way 0's occupant; victim_key agrees with the
     eviction the insert then reports. *)
  let victim = Cache.victim_key c (vip k2) in
  checkb "victim is a resident collider" true (victim = k0 || victim = k1);
  (match Cache.insert c ~admission:`All (vip k2) (pip 3) with
  | Cache.Inserted (Some (evicted, _)) ->
      checki "victim_key predicted the eviction" victim (Vip.to_int evicted)
  | _ -> Alcotest.fail "expected eviction");
  (* A conflict probe cleared k1's bit on the way: now A_bit_clear can
     admit into a clear-bit way. *)
  checkb "no victim for resident key" true (Cache.victim_key c (vip k2) = -1)

let test_dleft_invalidate_and_clear () =
  let c = Cache.create ~ways:2 ~slots:16 () in
  ignore (Cache.insert c ~admission:`All (vip 1) (pip 10));
  checkb "wrong stale keeps entry" false
    (Cache.invalidate c (vip 1) ~stale:(pip 99));
  checkb "matching stale removes" true
    (Cache.invalidate c (vip 1) ~stale:(pip 10));
  checki "occupancy" 0 (Cache.occupancy c);
  ignore (Cache.insert c ~admission:`All (vip 2) (pip 20));
  Cache.clear c;
  checki "cleared" 0 (Cache.occupancy c);
  checki "counters preserved" 2 (Cache.insertions c)

let test_dleft_zero_slots () =
  let c = Cache.create ~slots:0 () in
  checkb "always miss" true (Cache.lookup c (vip 1) = Cache.miss);
  checkb "insert rejected" true
    (Cache.insert c ~admission:`All (vip 1) (pip 1) = Cache.Rejected);
  checkb "no victim" true (Cache.victim_key c (vip 1) = -1)

(* --- Degenerate equivalence: a 1-way table IS the direct cache --- *)

(* The paper's direct-mapped cache, written from cache.mli's rules:
   key [v] owns the one line [Cache.mix v mod slots]; a hit sets the
   line's access bit and reports its previous value; a lookup that
   finds another key clears that occupant's bit; an insert updates in
   place, else fills an empty line, else evicts the occupant — always
   under [`All], only when its bit is clear under [`A_bit_clear]. *)
module Direct_model = struct
  type t = {
    keys : int array;
    values : int array;
    bits : bool array;
    mutable occupancy : int;
    mutable hits : int;
    mutable misses : int;
    mutable insertions : int;
    mutable evictions : int;
    mutable rejections : int;
  }

  let create slots =
    {
      keys = Array.make slots (-1);
      values = Array.make slots (-1);
      bits = Array.make slots false;
      occupancy = 0;
      hits = 0;
      misses = 0;
      insertions = 0;
      evictions = 0;
      rejections = 0;
    }

  let line t v = Cache.mix v mod Array.length t.keys

  let lookup t v =
    let i = line t v in
    if t.keys.(i) = v then begin
      t.hits <- t.hits + 1;
      let was_set = t.bits.(i) in
      t.bits.(i) <- true;
      (t.values.(i) lsl 1) lor Bool.to_int was_set
    end
    else begin
      t.misses <- t.misses + 1;
      if t.keys.(i) >= 0 then t.bits.(i) <- false;
      Cache.miss
    end

  let insert t ~admission v p =
    let i = line t v in
    let occupant = t.keys.(i) in
    if occupant = v then begin
      t.values.(i) <- p;
      Cache.Updated
    end
    else if occupant >= 0 && admission = `A_bit_clear && t.bits.(i) then begin
      t.rejections <- t.rejections + 1;
      Cache.Rejected
    end
    else begin
      let evicted =
        if occupant < 0 then None
        else Some (Vip.of_int occupant, Pip.of_int t.values.(i))
      in
      t.keys.(i) <- v;
      t.values.(i) <- p;
      t.bits.(i) <- false;
      t.insertions <- t.insertions + 1;
      if evicted = None then t.occupancy <- t.occupancy + 1
      else t.evictions <- t.evictions + 1;
      Cache.Inserted evicted
    end

  let invalidate t v ~stale =
    let i = line t v in
    let hit = t.keys.(i) = v && t.values.(i) = stale in
    if hit then begin
      t.keys.(i) <- -1;
      t.values.(i) <- -1;
      t.bits.(i) <- false;
      t.occupancy <- t.occupancy - 1
    end;
    hit

  let victim_key t v =
    let occupant = t.keys.(line t v) in
    if occupant = v then -1 else occupant
end

(* On ANY op sequence the two must agree byte-for-byte: packed lookup
   results (value and access bit), insert results including eviction
   payloads, invalidations, victim probes, and all five counters. *)
let dleft1_equiv_direct_qcheck =
  QCheck.Test.make ~name:"d=1 d-left equals direct-mapped" ~count:300
    QCheck.(
      list
        (pair (int_bound 3) (pair bool (pair (int_bound 200) (int_bound 1000)))))
    (fun ops ->
      let slots = 16 in
      let dm = Direct_model.create slots in
      let dl = Cache.create ~ways:1 ~slots () in
      let same_insert_result a b =
        match (a, b) with
        | Cache.Inserted None, Cache.Inserted None -> true
        | Cache.Inserted (Some (va, pa)), Cache.Inserted (Some (vb, pb)) ->
            Vip.equal va vb && Pip.equal pa pb
        | Cache.Updated, Cache.Updated -> true
        | Cache.Rejected, Cache.Rejected -> true
        | _ -> false
      in
      List.for_all
        (fun (op, (flag, (k, v))) ->
          let agree =
            match op with
            | 0 ->
                let admission = if flag then `All else `A_bit_clear in
                same_insert_result
                  (Direct_model.insert dm ~admission k v)
                  (Cache.insert dl ~admission (vip k) (pip v))
            | 1 -> Direct_model.lookup dm k = Cache.lookup dl (vip k)
            | 2 ->
                Direct_model.invalidate dm k ~stale:v
                = Cache.invalidate dl (vip k) ~stale:(pip v)
            | _ -> Direct_model.victim_key dm k = Cache.victim_key dl (vip k)
          in
          agree
          && dm.hits = Cache.hits dl
          && dm.misses = Cache.misses dl
          && dm.occupancy = Cache.occupancy dl
          && dm.insertions = Cache.insertions dl
          && dm.evictions = Cache.evictions dl
          && dm.rejections = Cache.rejections dl)
        ops)

(* --- Differential model tests --- *)

(* Reference model: the ground-truth mapping table plus an explicit
   ledger of what each insert/invalidate result implies. For every
   geometry and any op sequence:
   - a cached value is never stale (peek agrees with the last insert
     for that key);
   - occupancy tracks the ledger (+1 clean insert, -1 eviction or
     invalidation) and never exceeds capacity;
   - every lookup lands in exactly one of hits/misses;
   - insertions/evictions/rejections count exactly the results that
     reported them. *)
(* The model is the ground-truth mapping table (a Hashtbl) plus an
   explicit ledger derived from each result; the check pins the exact
   occupancy/counter arithmetic alongside value freshness. *)
let differential_ledger geo_name make =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s ledger invariants" geo_name)
    ~count:200
    QCheck.(
      list
        (pair (int_bound 2) (pair bool (pair (int_bound 60) (int_bound 1000)))))
    (fun ops ->
      let c : Cache.t = make () in
      let truth : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let occ = ref (Cache.occupancy c) in
      let ins = ref (Cache.insertions c)
      and evs = ref (Cache.evictions c)
      and rejs = ref (Cache.rejections c) in
      let lookups = ref 0 in
      let hits0 = Cache.hits c and misses0 = Cache.misses c in
      let ok = ref true in
      List.iter
        (fun (op, (flag, (k, v))) ->
          match op with
          | 0 -> begin
              Hashtbl.replace truth k v;
              let admission = if flag then `All else `A_bit_clear in
              (match Cache.insert c ~admission (vip k) (pip v) with
              | Cache.Inserted None ->
                  incr occ;
                  incr ins
              | Cache.Inserted (Some (ev, _)) ->
                  incr ins;
                  incr evs;
                  (* the evicted key is gone *)
                  if Cache.peek c (Vip.of_int (Vip.to_int ev)) <> None then
                    ok := Vip.to_int ev = k
              | Cache.Updated -> ()
              | Cache.Rejected -> incr rejs);
              if Cache.occupancy c <> !occ then ok := false
            end
          | 1 ->
              incr lookups;
              let r = Cache.lookup c (vip k) in
              if r <> Cache.miss then begin
                match Hashtbl.find_opt truth k with
                | Some tv -> if Pip.to_int (Cache.hit_pip r) <> tv then ok := false
                | None -> ok := false
              end
          | _ ->
              let removed = Cache.invalidate c (vip k) ~stale:(pip v) in
              if removed then begin
                decr occ;
                if Hashtbl.find_opt truth k <> Some v then ok := false
              end;
              if Cache.occupancy c <> !occ then ok := false)
        ops;
      !ok
      && Cache.occupancy c = !occ
      && Cache.occupancy c <= Cache.slots c
      && Cache.insertions c = !ins
      && Cache.evictions c = !evs
      && Cache.rejections c = !rejs
      && Cache.hits c - hits0 + (Cache.misses c - misses0) = !lookups)

let table ~ways ~tinylfu () = Cache.create ~ways ~tinylfu ~slots:16 ()
let geo_direct = table ~ways:1 ~tinylfu:false
let geo_dleft2 = table ~ways:2 ~tinylfu:false
let geo_dleft4 = table ~ways:4 ~tinylfu:false
let geo_direct_lfu = table ~ways:1 ~tinylfu:true
let geo_dleft2_lfu = table ~ways:2 ~tinylfu:true
let geo_dleft4_lfu = table ~ways:4 ~tinylfu:true

(* --- TinyLFU sketch invariants --- *)

(* An 8-line cache's sketch halves every 80 touches. *)
let sample_period_at_8_slots = 80

let test_sketch_never_undercounts () =
  (* Within one sample period, count-min estimates are upper bounds:
     touching a key k times reads back at least min(k, 15). *)
  let t = Tinylfu.create ~slots:8 in
  for k = 1 to 30 do
    Tinylfu.touch t 7;
    let e = Tinylfu.estimate t 7 in
    checkb "estimate >= true count (sat 15)" true (e >= min k 15);
    checkb "estimate <= 15" true (e <= 15)
  done

let test_sketch_halving () =
  let t = Tinylfu.create ~slots:8 in
  for _ = 1 to sample_period_at_8_slots - 1 do
    Tinylfu.touch t 3
  done;
  checki "no halving yet" 0 (Tinylfu.halvings t);
  let before = Tinylfu.estimate t 3 in
  Tinylfu.touch t 3;
  (* the 80th touch triggers the halving *)
  checki "one halving" 1 (Tinylfu.halvings t);
  checkb "estimate halved" true (Tinylfu.estimate t 3 <= (before + 1) / 2)

let test_lfu_admission_filters_cold_candidate () =
  let slots = 8 in
  let t = Cache.create ~tinylfu:true ~slots () in
  (* Find two keys sharing a slot so the second insert needs eviction. *)
  let k0 = 0 in
  let rec collider v =
    if v > 100_000 then Alcotest.fail "no collision"
    else if
      Cache.mix v mod slots = Cache.mix k0 mod slots && v <> k0
    then v
    else collider (v + 1)
  in
  let k1 = collider 1 in
  ignore (Cache.insert t ~admission:`All (vip k0) (pip 1));
  (* Make k0 hot. *)
  for _ = 1 to 10 do
    ignore (Cache.lookup t (vip k0))
  done;
  (* Cold k1 must be denied: its estimate cannot exceed hot k0's. *)
  checkb "cold candidate denied" true
    (Cache.insert t ~admission:`All (vip k1) (pip 2) = Cache.Rejected);
  checki "denial counted as a rejection" 1 (Cache.rejections t);
  checkb "occupant survives" true (Cache.peek t (vip k0) <> None);
  (* Now make k1 hotter than k0 and retry: admitted. *)
  for _ = 1 to 30 do
    ignore (Cache.lookup t (vip k1))
  done;
  (match Cache.insert t ~admission:`All (vip k1) (pip 2) with
  | Cache.Inserted (Some (ev, _)) -> checki "evicts the cold key" k0 (Vip.to_int ev)
  | _ -> Alcotest.fail "expected hot candidate admitted");
  checkb "new entry resident" true (Cache.peek t (vip k1) <> None)

let test_lfu_update_and_empty_bypass_filter () =
  let t = Cache.create ~tinylfu:true ~slots:8 () in
  (* Empty-line fills never consult the filter... *)
  (match Cache.insert t ~admission:`All (vip 1) (pip 1) with
  | Cache.Inserted None -> ()
  | _ -> Alcotest.fail "expected fill");
  (* ...nor do updates of a resident key. *)
  (match Cache.insert t ~admission:`All (vip 1) (pip 2) with
  | Cache.Updated -> ()
  | _ -> Alcotest.fail "expected update");
  checki "nothing denied" 0 (Cache.rejections t)

(* --- Every geometry through the basic operations --- *)

let test_geo_ops_roundtrip () =
  List.iter
    (fun make ->
      let c : Cache.t = make () in
      (match Cache.insert c ~admission:`All (vip 5) (pip 50) with
      | Cache.Inserted None -> ()
      | _ -> Alcotest.fail "expected clean insert");
      let r = Cache.lookup c (vip 5) in
      checkb "hit" true (r <> Cache.miss);
      checki "value" 50 (Pip.to_int (Cache.hit_pip r));
      checkb "peek" true (Cache.peek c (vip 5) = Some (pip 50));
      Cache.clear c;
      checki "cleared" 0 (Cache.occupancy c))
    [
      geo_direct; geo_dleft2; geo_dleft4; geo_direct_lfu; geo_dleft2_lfu;
      geo_dleft4_lfu;
    ]

let () =
  Alcotest.run "switchv2p-geometry"
    [
      ( "dleft",
        [
          Alcotest.test_case "create validation" `Quick
            test_dleft_create_validation;
          Alcotest.test_case "lookup after insert" `Quick
            test_dleft_lookup_after_insert;
          Alcotest.test_case "fills ways before evicting" `Quick
            test_dleft_fills_ways_before_evicting;
          Alcotest.test_case "admission and victims" `Quick
            test_dleft_admission_and_victims;
          Alcotest.test_case "invalidate and clear" `Quick
            test_dleft_invalidate_and_clear;
          Alcotest.test_case "zero slots" `Quick test_dleft_zero_slots;
          QCheck_alcotest.to_alcotest dleft1_equiv_direct_qcheck;
        ] );
      ( "tinylfu",
        [
          Alcotest.test_case "sketch never undercounts" `Quick
            test_sketch_never_undercounts;
          Alcotest.test_case "sketch halving" `Quick test_sketch_halving;
          Alcotest.test_case "filters cold candidate" `Quick
            test_lfu_admission_filters_cold_candidate;
          Alcotest.test_case "update/empty bypass filter" `Quick
            test_lfu_update_and_empty_bypass_filter;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest (differential_ledger "direct" geo_direct);
          QCheck_alcotest.to_alcotest (differential_ledger "dleft2" geo_dleft2);
          QCheck_alcotest.to_alcotest (differential_ledger "dleft4" geo_dleft4);
          QCheck_alcotest.to_alcotest
            (differential_ledger "direct+tinylfu" geo_direct_lfu);
          QCheck_alcotest.to_alcotest
            (differential_ledger "dleft2+tinylfu" geo_dleft2_lfu);
          QCheck_alcotest.to_alcotest
            (differential_ledger "dleft4+tinylfu" geo_dleft4_lfu);
        ] );
      ( "geo_cache",
        [
          Alcotest.test_case "ops roundtrip" `Quick test_geo_ops_roundtrip;
        ] );
    ]
