(* Tests for the discrete-event simulation substrate: RNG, engine,
   distributions, statistics, time. *)

module Rng = Dessim.Rng
module Engine = Dessim.Engine
module Dist = Dessim.Dist
module Stats = Dessim.Stats
module Time_ns = Dessim.Time_ns

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Time --- *)

let test_time_units () =
  checki "us" 1_000 (Time_ns.of_us 1);
  checki "ms" 1_000_000 (Time_ns.of_ms 1);
  checki "sec" 1_000_000_000 (Time_ns.of_sec 1.0);
  check (Alcotest.float 1e-9) "roundtrip" 1.5 (Time_ns.to_sec (Time_ns.of_sec 1.5))

let test_time_rate () =
  (* 1500 B at 100 Gb/s = 120 ns. *)
  checki "mtu at 100G" 120 (Time_ns.of_rate_bytes ~bits_per_sec:100e9 1500);
  (* Tiny packets still take at least 1 ns. *)
  checki "minimum" 1 (Time_ns.of_rate_bytes ~bits_per_sec:1e15 1)

let test_time_arith () =
  checki "add" 5 (Time_ns.add 2 3);
  checki "sub" 2 (Time_ns.sub 5 3);
  checki "max" 5 (Time_ns.max 5 3);
  checki "min" 3 (Time_ns.min 5 3)

(* --- RNG --- *)

let test_rng_deterministic () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    checki "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  checkb "different streams" true (xs <> ys)

let test_rng_int_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    checkb "in range" true (v >= 0 && v < 7)
  done

let test_rng_float_range () =
  let rng = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    checkb "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    checkb "p=0 never" false (Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    checkb "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let test_rng_bernoulli_rate () =
  let rng = Rng.create 6 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  checkb "close to 0.3" true (Float.abs (rate -. 0.3) < 0.01)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  checkb "split streams differ" true (xs <> ys)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 8 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation"
    (Array.init 100 Fun.id) sorted

let test_rng_invalid () =
  let rng = Rng.create 9 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "empty choose" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose rng [||]))

(* --- Engine --- *)

let test_engine_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~at:30 (fun () -> log := 30 :: !log);
  Engine.schedule eng ~at:10 (fun () -> log := 10 :: !log);
  Engine.schedule eng ~at:20 (fun () -> log := 20 :: !log);
  Engine.run eng;
  check (Alcotest.list Alcotest.int) "timestamp order" [ 10; 20; 30 ]
    (List.rev !log);
  checki "clock at last event" 30 (Engine.now eng)

let test_engine_nested_scheduling () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~at:10 (fun () ->
      log := `A :: !log;
      Engine.schedule_after eng ~delay:5 (fun () -> log := `B :: !log));
  Engine.schedule eng ~at:12 (fun () -> log := `C :: !log);
  Engine.run eng;
  checkb "nested event runs in order" true (List.rev !log = [ `A; `C; `B ])

let test_engine_past_rejected () =
  let eng = Engine.create () in
  Engine.schedule eng ~at:10 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: event in the past")
        (fun () -> Engine.schedule eng ~at:5 (fun () -> ())));
  Engine.run eng

let test_engine_run_until () =
  let eng = Engine.create () in
  let log = ref [] in
  List.iter
    (fun t -> Engine.schedule eng ~at:t (fun () -> log := t :: !log))
    [ 10; 20; 30; 40 ];
  Engine.run_until eng ~limit:25;
  check (Alcotest.list Alcotest.int) "only events <= limit" [ 10; 20 ]
    (List.rev !log);
  checki "clock advanced to limit" 25 (Engine.now eng);
  checki "pending remain" 2 (Engine.pending eng);
  Engine.run_until eng ~limit:100;
  checki "drained" 0 (Engine.pending eng);
  checki "executed total" 4 (Engine.executed eng)

(* Engine memory tracks the peak number of pending events, not the
   number of distinct times ever used: 64 bursts of [n] events, each
   packed into its own ~16 us slot and drained before the next, must
   leave the engine holding about one burst's worth of 5-word event
   records. *)
let test_engine_memory_tracks_pending () =
  let n = 8192 in
  let eng = Engine.create () in
  let count = ref 0 in
  Engine.set_handler eng (fun ~code:_ ~a:_ ~b:_ -> incr count);
  for burst = 0 to 63 do
    let base = burst * 16_384 in
    for i = 0 to n - 1 do
      Engine.schedule_event eng ~at:(base + (i land 16_383)) ~code:0 ~a:i ~b:0
    done;
    Engine.run eng
  done;
  checki "every event executed" (64 * n) !count;
  let words = Obj.reachable_words (Obj.repr eng) in
  checkb
    (Printf.sprintf "%d reachable words <= 2 * n * 5" words)
    true
    (words <= 2 * n * 5)

(* Model-checked event order: drive the engine through a random
   schedule and compare its trace with a reference model, an ordered
   map keyed by (time, scheduling order) — the order a stable sort by
   time of the events in scheduling order gives. The schedules mix
   0-delay FIFO ties, sub-microsecond and multi-millisecond delays;
   handler respawns enqueue mid-drain at or just after the current
   time; thunk ops interleave the closure lane with typed events;
   draining happens through several run_until windows before the
   final run, exercising parking and clock-advance-to-limit on a
   non-empty queue. *)
type model_ev = Typed of { code : int; a : int; gen : int } | Thunk of int

module Order = Map.Make (struct
  type t = int * int

  let compare = compare
end)

let engine_model =
  let delays =
    [|
      0; 1; 3; 12; 900; 1_024; 16_383; 16_384; 65_537; 1_000_000; 5_000_000;
      12_345_678;
    |]
  in
  let windows eng_now run_until =
    for _ = 1 to 3 do
      run_until ~limit:(Time_ns.add (eng_now ()) 100_000)
    done
  in
  QCheck.Test.make ~name:"engine trace = (time, seq) model" ~count:150
    QCheck.(list (triple (int_bound (Array.length delays - 1)) (int_bound 3) small_nat))
    (fun ops ->
      let engine_trace () =
        let eng = Engine.create () in
        let b = Buffer.create 1024 in
        let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
        Engine.set_handler eng (fun ~code ~a ~b:gen ->
            addf "e t=%d c=%d a=%d\n" (Engine.now eng) code a;
            (* First-generation events respawn once from inside the
               handler. *)
            if gen = 0 then
              Engine.schedule_event_after eng ~delay:(a land 15) ~code ~a ~b:1);
        List.iter
          (fun (d, code, a) ->
            let delay = delays.(d) in
            if code = 3 then
              Engine.schedule_after eng ~delay (fun () ->
                  addf "f t=%d a=%d\n" (Engine.now eng) a;
                  Engine.schedule_event_after eng ~delay:0 ~code:9 ~a ~b:1)
            else Engine.schedule_event_after eng ~delay ~code ~a ~b:0)
          ops;
        windows (fun () -> Engine.now eng) (Engine.run_until eng);
        Engine.run eng;
        addf "now=%d executed=%d pending=%d\n" (Engine.now eng)
          (Engine.executed eng) (Engine.pending eng);
        Buffer.contents b
      in
      let model_trace () =
        let b = Buffer.create 1024 in
        let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
        let pending = ref Order.empty and seq = ref 0 in
        let clock = ref 0 and executed = ref 0 in
        let schedule ~delay ev =
          pending := Order.add (!clock + delay, !seq) ev !pending;
          incr seq
        in
        let rec drain ~limit =
          match Order.min_binding_opt !pending with
          | Some (((at, _) as key), ev) when at <= limit ->
              pending := Order.remove key !pending;
              clock := at;
              incr executed;
              (match ev with
              | Typed { code; a; gen } ->
                  addf "e t=%d c=%d a=%d\n" at code a;
                  if gen = 0 then
                    schedule ~delay:(a land 15) (Typed { code; a; gen = 1 })
              | Thunk a ->
                  addf "f t=%d a=%d\n" at a;
                  schedule ~delay:0 (Typed { code = 9; a; gen = 1 }));
              drain ~limit
          | _ -> ()
        in
        let run_until ~limit =
          drain ~limit;
          clock := max !clock limit
        in
        List.iter
          (fun (d, code, a) ->
            schedule ~delay:delays.(d)
              (if code = 3 then Thunk a else Typed { code; a; gen = 0 }))
          ops;
        windows (fun () -> !clock) run_until;
        drain ~limit:max_int;
        addf "now=%d executed=%d pending=%d\n" !clock !executed
          (Order.cardinal !pending);
        Buffer.contents b
      in
      String.equal (engine_trace ()) (model_trace ()))

(* --- Distributions --- *)

let test_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Dist.exponential rng ~mean:42.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean close to 42" true (Float.abs (mean -. 42.0) < 1.0)

let test_zipf_skew () =
  let rng = Rng.create 12 in
  let z = Dist.Zipf.create ~n:100 ~alpha:1.2 in
  let counts = Array.make 101 0 in
  for _ = 1 to 50_000 do
    let r = Dist.Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  checkb "rank 1 most popular" true (counts.(1) > counts.(2));
  checkb "rank 2 beats rank 50" true (counts.(2) > counts.(50));
  checkb "all in range" true
    (Array.for_all (fun c -> c >= 0) counts)

let test_empirical_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Empirical.create: empty knots")
    (fun () -> ignore (Dist.Empirical.create []));
  Alcotest.check_raises "not ending at 1"
    (Invalid_argument "Empirical.create: last probability must be 1.0")
    (fun () -> ignore (Dist.Empirical.create [ (1.0, 0.5) ]));
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Empirical.create: probabilities not sorted") (fun () ->
      ignore (Dist.Empirical.create [ (1.0, 0.7); (2.0, 0.3); (3.0, 1.0) ]))

let test_empirical_bounds () =
  let rng = Rng.create 13 in
  let d = Dist.Empirical.create [ (10.0, 0.2); (100.0, 0.8); (1000.0, 1.0) ] in
  for _ = 1 to 10_000 do
    let v = Dist.Empirical.sample d rng in
    checkb "within knot range" true (v >= 10.0 && v <= 1000.0)
  done

let test_empirical_mean_close_to_sample_mean () =
  let rng = Rng.create 14 in
  let d = Dist.Empirical.create [ (10.0, 0.3); (100.0, 0.9); (500.0, 1.0) ] in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Dist.Empirical.sample d rng
  done;
  let sample_mean = !sum /. float_of_int n in
  let analytic = Dist.Empirical.mean d in
  checkb "analytic ~ sampled" true
    (Float.abs (sample_mean -. analytic) /. analytic < 0.05)

(* --- Stats --- *)

let test_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  checki "count" 4 (Stats.Summary.count s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.Summary.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.Summary.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.Summary.max s);
  check (Alcotest.float 1e-9) "sum" 10.0 (Stats.Summary.sum s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  check (Alcotest.float 1e-9) "mean of empty" 0.0 (Stats.Summary.mean s);
  Alcotest.check_raises "min of empty" Not_found (fun () ->
      ignore (Stats.Summary.min s))

let test_reservoir_percentiles () =
  let r = Stats.Reservoir.create (Rng.create 15) in
  for i = 1 to 100 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.Reservoir.percentile r 50.0);
  check (Alcotest.float 1e-9) "p99" 99.0 (Stats.Reservoir.percentile r 99.0);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.Reservoir.percentile r 100.0);
  check (Alcotest.float 1e-9) "mean" 50.5 (Stats.Reservoir.mean r)

let test_reservoir_capacity () =
  let r = Stats.Reservoir.create ~capacity:10 (Rng.create 16) in
  for i = 1 to 1000 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  checki "sees all" 1000 (Stats.Reservoir.count r);
  (* Percentile still answerable from the sample. *)
  let p50 = Stats.Reservoir.percentile r 50.0 in
  checkb "p50 plausible" true (p50 > 0.0 && p50 <= 1000.0)

let test_reservoir_empty () =
  let r = Stats.Reservoir.create (Rng.create 17) in
  Alcotest.check_raises "empty percentile" Not_found (fun () ->
      ignore (Stats.Reservoir.percentile r 50.0));
  Alcotest.check (Alcotest.float 1e-9) "empty mean" 0.0 (Stats.Reservoir.mean r)

let test_rng_copy_divergence () =
  let a = Rng.create 21 in
  ignore (Rng.int a 10);
  let b = Rng.copy a in
  (* Copies continue the same stream... *)
  checki "same next draw" (Rng.int (Rng.copy a) 1_000_000) (Rng.int b 1_000_000)

let test_counter () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c "a" 2;
  Stats.Counter.incr c "a" 3;
  Stats.Counter.incr c "b" 1;
  checki "a" 5 (Stats.Counter.get c "a");
  checki "b" 1 (Stats.Counter.get c "b");
  checki "absent" 0 (Stats.Counter.get c "zzz");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "to_list sorted"
    [ ("a", 5); ("b", 1) ]
    (Stats.Counter.to_list c)

let () =
  Alcotest.run "dessim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "serialization time" `Quick test_time_rate;
          Alcotest.test_case "arithmetic" `Quick test_time_arith;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle is permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "invalid arguments" `Quick test_rng_invalid;
          Alcotest.test_case "copy continues stream" `Quick test_rng_copy_divergence;
        ] );
      ( "engine",
        List.map
          (fun (name, f) -> Alcotest.test_case (name ^ " (heap)") `Quick f)
          [
            ("event order", test_engine_order);
            ("nested scheduling", test_engine_nested_scheduling);
            ("past events rejected", test_engine_past_rejected);
            ("run_until", test_engine_run_until);
          ]
        @ [
            Alcotest.test_case "memory tracks peak pending" `Quick
              test_engine_memory_tracks_pending;
            QCheck_alcotest.to_alcotest engine_model;
          ] );
      ( "dist",
        [
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "empirical validation" `Quick test_empirical_validation;
          Alcotest.test_case "empirical bounds" `Quick test_empirical_bounds;
          Alcotest.test_case "empirical mean" `Quick test_empirical_mean_close_to_sample_mean;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "summary empty" `Quick test_summary_empty;
          Alcotest.test_case "reservoir percentiles" `Quick test_reservoir_percentiles;
          Alcotest.test_case "reservoir capacity" `Quick test_reservoir_capacity;
          Alcotest.test_case "reservoir empty" `Quick test_reservoir_empty;
          Alcotest.test_case "counter" `Quick test_counter;
        ] );
    ]
