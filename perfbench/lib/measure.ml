module Engine = Dessim.Engine
module Time_ns = Dessim.Time_ns
module Network = Netsim.Network
module Metrics = Netsim.Metrics

(* These variables silently change the program under test (scheduler
   backend, wheel geometry, shard and worker counts); a benchmark
   number must not depend on them. *)
let pinned_env =
  [ "REPRO_SCHED"; "REPRO_WHEEL_SHIFT"; "REPRO_WHEEL_BUCKETS"; "REPRO_SHARDS";
    "REPRO_JOBS" ]

(** [pinned_env_set ()] — the pinned variables set (non-empty) in the
    environment; the benchmark refuses to run unless there are none.
    Empty counts as unset, as it does for the engine. *)
let pinned_env_set () =
  List.filter
    (fun v -> Option.value ~default:"" (Sys.getenv_opt v) <> "")
    pinned_env

let ns_to_s ns = float_of_int ns *. 1e-9

(** Simulated results of one run: exact for a fixed seed. *)
type sim = {
  events : int;
  injected : int;
  delivered : int;
  dropped : int;
  consumed : int;
  live : int;
  flows_generated : int;
  flows_started : int;
  flows_completed : int;
  transport_completed : int;
  packets_sent : int;
  gateway_packets : int;
  retransmits : int;
  link_drops : int;
  misdelivered : int;
  hit_rate : float;
  fct_mean_us : float;
  fct_p99_us : float;
  first_pkt_us : float;
  layer_hits : int * int * int * int * int;
  scheme_stats : (string * float) list;
  fault_counts : (string * int) list;
}

let sim_of (w : Workload.t) net ~scheme ~extra_events =
  let m = Network.metrics net in
  let completed = Metrics.flows_completed m in
  {
    events = Engine.executed (Network.engine net) - extra_events;
    injected = Network.injected_packets net;
    delivered = Metrics.delivered_packets m;
    dropped = Metrics.packets_dropped m;
    consumed = Network.consumed_at_switch net;
    live = Network.live_packets net;
    flows_generated = List.length w.Workload.flows;
    flows_started = Metrics.flows_started m;
    flows_completed = completed;
    transport_completed =
      Netsim.Transport.flows_completed (Network.transport net);
    packets_sent = Metrics.packets_sent m;
    gateway_packets = Metrics.gateway_packets m;
    retransmits = Metrics.retransmits_sent m;
    link_drops = List.assoc "link_buffer" (Metrics.drops_by_site m);
    misdelivered = Metrics.misdelivered_packets m;
    hit_rate = Metrics.hit_rate m;
    fct_mean_us = Metrics.mean_fct m *. 1e6;
    fct_p99_us =
      (if completed > 0 then Metrics.fct_percentile m 99. *. 1e6 else 0.);
    first_pkt_us = Metrics.mean_first_packet_latency m *. 1e6;
    layer_hits = Metrics.layer_hits m;
    scheme_stats = scheme.Netsim.Scheme.stats ();
    fault_counts = Network.fault_counts net;
  }

let digest s =
  let b = Buffer.create 512 in
  let c, sp, tor, gw, host = s.layer_hits in
  List.iter
    (fun v -> Buffer.add_string b (string_of_int v ^ " "))
    [
      s.events; s.injected; s.delivered; s.dropped; s.consumed; s.live;
      s.flows_generated; s.flows_started; s.flows_completed;
      s.transport_completed; s.packets_sent; s.gateway_packets;
      s.retransmits; s.link_drops; s.misdelivered; c; sp; tor; gw; host;
    ];
  List.iter
    (fun v -> Buffer.add_string b (Printf.sprintf "%h " v))
    [ s.hit_rate; s.fct_mean_us; s.fct_p99_us; s.first_pkt_us ];
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s=%h " k v))
    s.scheme_stats;
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s=%d " k v))
    s.fault_counts;
  Digest.to_hex (Digest.string (Buffer.contents b))

(** The output check: a list of violated conditions, empty when the run
    is correct. *)
let check s =
  let fail cond msg acc = if cond then acc else msg :: acc in
  []
  |> fail
       (s.injected = s.delivered + s.dropped + s.consumed + s.live)
       (Printf.sprintf
          "conservation: injected %d <> delivered %d + dropped %d + consumed \
           %d + live %d"
          s.injected s.delivered s.dropped s.consumed s.live)
  |> fail
       (s.flows_started = s.flows_generated)
       (Printf.sprintf "flows: %d generated but %d started" s.flows_generated
          s.flows_started)
  |> fail
       (s.flows_completed = s.transport_completed)
       (Printf.sprintf "flows: metrics completed %d <> transport completed %d"
          s.flows_completed s.transport_completed)
  |> fail (s.flows_completed > 0) "flows: none completed"
  |> List.rev

let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(** End-to-end simulated outcomes, by metric name. *)
let outcomes s =
  [
    ("hit_rate", s.hit_rate);
    ("fct_mean_us", s.fct_mean_us);
    ("fct_p99_us", s.fct_p99_us);
    ("first_pkt_us", s.first_pkt_us);
    ("pkt_drop_frac", frac s.dropped s.injected);
    ( "flow_fail_frac",
      frac (s.flows_generated - s.flows_completed) s.flows_generated );
  ]

let stat s k = Option.value ~default:0. (List.assoc_opt k s.scheme_stats)

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
            | kb -> float_of_int kb /. 1024.
            | exception _ -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

type run = {
  sim : sim;
  sched : string;  (** the scheduler backend the run's engine used *)
  run_ns : int;
  gc_minor : float;
  gc_promoted : float;
  gc_major : int;
}

let pending_interval = Time_ns.of_us 10

(** [run_once w ~spans make_scheme] creates the scheme and the network
    (the [setup.net] span), runs it, and returns the simulated result
    with the host cost of [Network.run]. With [pending], an observer
    samples the engine's pending-event peak; its events are discounted
    from the result. *)
let run_once ?pending (w : Workload.t) ~spans make_scheme =
  let scheme, net =
    Tracer.span spans "setup.net" (fun () ->
        let scheme = make_scheme () in
        (scheme, Workload.network w scheme))
  in
  Option.iter
    (fun p ->
      Tracer.sample_pending p (Network.engine net) ~until:w.Workload.until
        ~interval:pending_interval)
    pending;
  let g0 = Gc.quick_stat () in
  let (), run_ns =
    Tracer.time (fun () ->
        Network.run net w.Workload.flows ~migrations:[] ~until:w.Workload.until)
  in
  let g1 = Gc.quick_stat () in
  {
    sim =
      sim_of w net ~scheme
        ~extra_events:
          (match pending with Some p -> p.Tracer.ticks | None -> 0);
    sched = Engine.sched_name (Engine.sched (Network.engine net));
    run_ns;
    gc_minor = g1.Gc.minor_words -. g0.Gc.minor_words;
    gc_promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* --- layers timed in isolation ---------------------------------------- *)

(** [hold_ns ~depth ~mean_delay_ns] — host nanoseconds for one schedule
    plus one dispatch on an engine whose handler only reschedules, so
    the queue stays at [depth] events. Delays are exponential with the
    workload's mean event lead time. *)
let hold_ns ~depth ~mean_delay_ns =
  let depth = max 1 depth in
  let rng = Random.State.make [| 0x5eed |] in
  let delays =
    Array.init 4096 (fun _ ->
        1
        + int_of_float
            (-.mean_delay_ns *. log (1. -. Random.State.float rng 1.)))
  in
  let e = Engine.create ~reserve:(depth + 64) () in
  let i = ref 0 in
  Engine.set_handler e (fun ~code:_ ~a:_ ~b:_ ->
      let d = Array.unsafe_get delays (!i land 4095) in
      incr i;
      Engine.schedule_event_after e ~delay:(Time_ns.of_ns d) ~code:0 ~a:0 ~b:0);
  for k = 0 to depth - 1 do
    Engine.schedule_event e ~at:(Time_ns.of_ns delays.(k land 4095)) ~code:0
      ~a:0 ~b:0
  done;
  (* Sim time that dispatches [n] events at this depth (Little's law). *)
  let span_for n =
    Time_ns.of_ns (int_of_float (float_of_int n *. mean_delay_ns /. float_of_int depth))
  in
  let advance n = Time_ns.add (Engine.now e) (span_for n) in
  Engine.run_until e ~limit:(advance (max 100_000 depth));
  let n0 = Engine.executed e in
  let limit = advance 1_000_000 in
  let (), ns = Tracer.time (fun () -> Engine.run_until e ~limit) in
  float_of_int ns /. float_of_int (max 1 (Engine.executed e - n0))

(** [next_hop_ns topo ~alive (tr : Tracer.t)] — host nanoseconds per
    routing call over the next_hop inputs the wrapper sampled, through
    the same entry point the network uses ([alive] when a fault plan is
    installed). *)
let next_hop_ns topo ~alive (tr : Tracer.t) =
  let n = tr.Tracer.nhops in
  if n = 0 then 0.
  else begin
    let hops = tr.Tracer.hops in
    let passes = (1_000_000 / n) + 1 in
    let sink = ref 0 in
    let call =
      if alive then Topo.Routing.next_hop_alive else Topo.Routing.next_hop
    in
    let (), ns =
      Tracer.time (fun () ->
          for _ = 1 to passes do
            for i = 0 to n - 1 do
              sink :=
                !sink
                lxor call topo ~at:hops.(3 * i) ~dst:hops.((3 * i) + 1)
                       ~salt:hops.((3 * i) + 2)
            done
          done)
    in
    ignore (Sys.opaque_identity !sink);
    float_of_int ns /. float_of_int (passes * n)
  end

(* --- the two kinds of benchmark process ------------------------------- *)

type report = {
  ok : bool;
  errors : string list;
  digest : string;
  sched : string;
  fields : (string * float) list;  (** metric name -> value *)
  spans : (string * string * int * float * float) list;
      (** traced only: name, parent, count, total_s, self_s *)
}

let setup_fields spans =
  let topo = Tracer.span_ns spans "setup.topo"
  and flows = Tracer.span_ns spans "setup.flows"
  and net = Tracer.span_ns spans "setup.net" in
  [
    ("setup_s", ns_to_s (topo + flows + net));
    ("setup.topo_s", ns_to_s topo);
    ("setup.flows_s", ns_to_s flows);
    ("setup.net_s", ns_to_s net);
  ]

(* Set-ups per process: at least [setup_reps_min], more while they
   have taken under [setup_budget_s] (a 1 ms FT8 set-up is repeated
   about a hundred times, a 0.1 s FT16 one five times), so the median
   is steady at either size. *)
let setup_reps_min = 5
let setup_reps_max = 100
let setup_budget_s = 0.1

(* About 0.2 s on a 2-core x86 box: long enough to average over the
   host's short stalls, short next to the runs it scales. *)
let reference_events = 600_000

(** [reference_s ()] — wall seconds of the fixed {!Reference} kernel
    now: a reading of the host's speed. The benchmark takes it in a
    process of its own, so the kernel's memory stays out of the
    workload's [peak_rss_mb]. *)
let reference_s () =
  let k = Reference.create () in
  let (), ns =
    Tracer.time (fun () ->
        ignore (Sys.opaque_identity (Reference.run k ~events:reference_events)))
  in
  ns_to_s ns

(** [untraced w] — one run with tracing off: the end-to-end metrics.
    After the run (and the memory reading) the set-up is repeated, and
    [setup_s] is the median of the set-ups. *)
let untraced ?scale name ~seed =
  let spans = ref [] in
  let w = Workload.build ?scale ~spans name ~seed in
  let r = run_once w ~spans w.Workload.make_scheme in
  let rss = peak_rss_mb () in
  let setup_s spans = List.assoc "setup_s" (setup_fields spans) in
  let again () =
    let spans = ref [] in
    let w = Workload.build ?scale ~spans name ~seed in
    ignore
      (Tracer.span spans "setup.net" (fun () ->
           Workload.network w (w.Workload.make_scheme ())));
    setup_s spans
  in
  let rec more acc n spent =
    if n >= setup_reps_max || (n >= setup_reps_min && spent >= setup_budget_s)
    then acc
    else
      let s = again () in
      more (s :: acc) (n + 1) (spent +. s)
  in
  let first = setup_s spans in
  let setups = Array.of_list (more [ first ] 1 first) in
  Array.sort compare setups;
  let errors = check r.sim in
  {
    ok = errors = [];
    errors;
    digest = digest r.sim;
    sched = r.sched;
    fields =
      [
        ("run_s", ns_to_s r.run_ns);
        ("events", float_of_int r.sim.events);
        ("peak_rss_mb", rss);
        ("setup_s", setups.(Array.length setups / 2));
      ]
      @ outcomes r.sim;
    spans = [];
  }

(** [traced w] — an untraced run for exact counts, GC behaviour and the
    reference digest, then a traced run of the same input (which must
    reproduce it), the layers timed in isolation, and the same logical
    run on two {!Netsim.Parnet} shards. *)
let traced ?scale name ~seed =
  let spans = ref [] in
  let w = Workload.build ?scale ~spans name ~seed in
  let base = run_once w ~spans:(ref []) w.Workload.make_scheme in
  let s = base.sim in
  let tr = Tracer.create () in
  let pending = { Tracer.peak = 0; ticks = 0 } in
  let traced =
    run_once ~pending w ~spans (fun () ->
        Tracer.wrap tr (w.Workload.make_scheme ()))
  in
  let traced_digest = digest traced.sim in
  let base_digest = digest s in
  let sim_ns = Time_ns.to_ns w.Workload.until in
  let pending_peak = pending.Tracer.peak in
  let c_in, c_out = Tracer.clock_cost () in
  let nspans = tr.Tracer.dispatches + tr.Tracer.host_calls in
  let pipeline_ns =
    float_of_int tr.Tracer.pipeline_ns -. (c_in *. float_of_int tr.Tracer.dispatches)
  in
  let host_ns =
    float_of_int tr.Tracer.host_ns -. (c_in *. float_of_int tr.Tracer.host_calls)
  in
  let run_ns = float_of_int traced.run_ns -. (c_out *. float_of_int nspans) in
  let network_ns = run_ns -. pipeline_ns -. host_ns in
  let hold =
    hold_ns ~depth:pending_peak
      ~mean_delay_ns:
        (float_of_int pending_peak *. float_of_int sim_ns
        /. float_of_int (max 1 s.events))
  in
  let next_hop =
    next_hop_ns w.Workload.setup.Experiments.Setup.topo
      ~alive:(w.Workload.faults <> None) tr
  in
  let control = stat s "learning_packets" +. stat s "invalidation_packets" in
  let routing_calls =
    float_of_int (tr.Tracer.forwards + s.gateway_packets) +. control
  in
  let par, par_ns =
    Tracer.time (fun () ->
        Netsim.Parnet.run ~config:w.Workload.config ?faults:w.Workload.faults
          ~shards:2 w.Workload.setup.Experiments.Setup.topo
          ~make_scheme:(fun ~shard:_ -> w.Workload.make_scheme ())
          ~flows:w.Workload.flows ~migrations:[] ~until:w.Workload.until)
  in
  let nets = Netsim.Parnet.nets par in
  let par_events =
    Array.fold_left (fun a n -> a + Engine.executed (Network.engine n)) 0 nets
  in
  let handoffs =
    Array.fold_left (fun a n -> a + Network.handoffs_sent n) 0 nets
  in
  let pm = Netsim.Parnet.metrics par in
  let par_ok =
    Netsim.Parnet.injected_packets par
    = Metrics.delivered_packets pm + Metrics.packets_dropped pm
      + Netsim.Parnet.consumed_at_switch par
      + Netsim.Parnet.live_packets par
      + Netsim.Parnet.handoffs_in_flight par
  in
  let core, spine, tor, gw, host = s.layer_hits in
  let events = float_of_int s.events in
  let errors =
    check s @ check traced.sim
    @ (if traced_digest = base_digest then []
       else [ "digest: traced run differs from untraced run" ])
    @ if par_ok then [] else [ "parnet: conservation violated" ]
  in
  let fields =
    [
      ("engine.events", events);
      ("engine.pending_peak", float_of_int pending_peak);
      ("engine.hold_ns", hold);
      ("routing.calls", routing_calls);
      ("routing.next_hop_ns", next_hop);
      ("pipeline.dispatches", float_of_int tr.Tracer.dispatches);
      ("pipeline.self_s", pipeline_ns *. 1e-9);
      ( "pipeline.ns_per_dispatch",
        pipeline_ns /. float_of_int (max 1 tr.Tracer.dispatches) );
      ( "cache.switch_hit_frac",
        frac (core + spine + tor) (core + spine + tor + gw + host) );
      ( "spill.absorb_ratio",
        let a = stat s "spills_attached" in
        if a = 0. then 0. else stat s "spills_absorbed" /. a );
      ("v2p.control_pkts", control);
      ("host.calls", float_of_int tr.Tracer.host_calls);
      ("host.self_s", host_ns *. 1e-9);
      ("network.run_s", run_ns *. 1e-9);
      ("network.self_s", network_ns *. 1e-9);
      ("network.ns_per_event", network_ns /. events);
      ( "network.unattributed_s",
        (network_ns -. (events *. hold) -. (routing_calls *. next_hop)) *. 1e-9
      );
      ("transport.retx_frac", frac s.retransmits s.packets_sent);
      ("link.drop_frac", frac s.link_drops s.injected);
      ("mapping.writes", float_of_int tr.Tracer.mapping_writes);
      ("fault.misdelivered", float_of_int s.misdelivered);
      ("v2p.entries_invalidated", stat s "entries_invalidated");
      ("gc.minor_words_per_event", base.gc_minor /. events);
      ("gc.promoted_words_per_event", base.gc_promoted /. events);
      ("gc.major_collections", float_of_int base.gc_major);
      ("parnet.wall_ratio", float_of_int base.run_ns /. float_of_int par_ns);
      ("parnet.extra_event_frac", (float_of_int par_events /. events) -. 1.);
      ("parnet.handoffs", float_of_int handoffs);
      ( "trace.overhead_frac",
        (float_of_int traced.run_ns /. float_of_int base.run_ns) -. 1. );
      ("trace.clock_ns", c_in +. c_out);
    ]
    @ setup_fields spans
  in
  let setup_s n = ns_to_s (Tracer.span_ns spans n) in
  let f k = List.assoc k fields in
  {
    ok = errors = [];
    errors;
    digest = base_digest;
    sched = base.sched;
    fields;
    spans =
      [
        ("setup.topo", "", 1, setup_s "setup.topo", setup_s "setup.topo");
        ("setup.flows", "", 1, setup_s "setup.flows", setup_s "setup.flows");
        ("setup.net", "", 1, setup_s "setup.net", setup_s "setup.net");
        ("network.run", "", 1, f "network.run_s", f "network.self_s");
        ( "scheme.pipeline", "network.run", tr.Tracer.dispatches,
          f "pipeline.self_s", f "pipeline.self_s" );
        ("scheme.host", "network.run", tr.Tracer.host_calls, f "host.self_s",
          f "host.self_s");
      ];
  }
