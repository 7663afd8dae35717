(* Property and unit tests for the fault-injection subsystem:
   loss-channel models, fault-aware ECMP fallback/recovery, plan text
   round-trips, the pipeline reset hook, and packet conservation under
   randomized fault plans (via the DST harness). *)

module Fault = Dessim.Fault
module Rng = Dessim.Rng
module Time_ns = Dessim.Time_ns
module Params = Topo.Params
module Topology = Topo.Topology
module Routing = Topo.Routing
module Link = Topo.Link
module Flow = Netcore.Flow
module Vip = Netcore.Addr.Vip
module Network = Netsim.Network
module Faultplan = Netsim.Faultplan
module Pipeline = Netsim.Pipeline
module Dst = Experiments.Dst

let params =
  Params.scaled ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:2 ~vms_per_host:2 ()

(* ---------------------------------------------------------------- *)
(* Loss-channel models.                                             *)

let drop_rate model ~draws ~seed =
  let rng = Rng.create seed in
  let state = ref 0 and drops = ref 0 in
  for _ = 1 to draws do
    let packed = Fault.step_packed model ~state:!state rng in
    state := packed lsr 1;
    if packed land 1 = 1 then incr drops
  done;
  float_of_int !drops /. float_of_int draws

let test_bernoulli_rate () =
  let r = drop_rate (Fault.Bernoulli 0.1) ~draws:20_000 ~seed:42 in
  if r < 0.08 || r > 0.12 then
    Alcotest.failf "Bernoulli(0.1) measured loss rate %f outside [0.08,0.12]" r

let test_gilbert_elliott_rate () =
  (* Stationary bad fraction = p_enter/(p_enter+p_exit) = 1/6, so the
     long-run loss rate is ~ loss_bad/6 ~ 0.083. *)
  let ge =
    Fault.Gilbert_elliott
      { Fault.p_enter_bad = 0.1; p_exit_bad = 0.5; loss_good = 0.0; loss_bad = 0.5 }
  in
  let r = drop_rate ge ~draws:20_000 ~seed:7 in
  if r < 0.05 || r > 0.12 then
    Alcotest.failf "GE measured loss rate %f outside [0.05,0.12]" r

(* No_loss must not consume RNG draws: installing the fault layer with
   no active loss channel leaves every other stream byte-identical. *)
let test_no_loss_draws_nothing () =
  let rng = Rng.create 99 in
  let shadow = Rng.copy rng in
  let state = ref 0 in
  for _ = 1 to 100 do
    let packed = Fault.step_packed Fault.No_loss ~state:!state rng in
    state := packed lsr 1;
    Alcotest.(check bool) "No_loss never drops" false (packed land 1 = 1)
  done;
  Alcotest.(check int) "rng untouched by No_loss" (Rng.int shadow 1_000_000)
    (Rng.int rng 1_000_000)

let test_corrupt_one_shot () =
  let topo = Topology.build params in
  let src, dst = (Faultplan.fabric_pairs topo).(0) in
  let link = Topology.link topo ~src ~dst in
  Alcotest.(check bool) "no corruption armed" false (Link.take_corrupt link);
  link.Link.corrupt_next <- 2;
  Alcotest.(check bool) "first armed shot" true (Link.take_corrupt link);
  Alcotest.(check bool) "second armed shot" true (Link.take_corrupt link);
  Alcotest.(check bool) "disarmed after budget" false (Link.take_corrupt link)

(* ---------------------------------------------------------------- *)
(* Fault-aware ECMP routing.                                        *)

(* Every (at, dst, salt) with a defined next hop, with the oracle's
   answer. Unreachable pairs (core-to-core) are skipped. *)
let sample_table topo =
  let n = Topology.num_nodes topo in
  let acc = ref [] in
  for at = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if at <> dst then
        for salt = 0 to 2 do
          match Routing.next_hop_oracle topo ~at ~dst ~salt with
          | hop -> acc := (at, dst, salt, hop) :: !acc
          | exception Invalid_argument _ -> ()
        done
    done
  done;
  !acc

let check_matches_oracle ~what topo samples =
  List.iter
    (fun (at, dst, salt, hop) ->
      let got = Routing.next_hop_alive topo ~at ~dst ~salt in
      if got <> hop then
        QCheck.Test.fail_reportf
          "%s: next_hop_alive(at=%d,dst=%d,salt=%d) = %d, oracle says %d" what
          at dst salt got hop;
      let l =
        Topology.link_of_id topo (Routing.next_link_alive topo ~at ~dst ~salt)
      in
      if l.Link.src <> at || l.Link.dst <> hop then
        QCheck.Test.fail_reportf
          "%s: next_link_alive(at=%d,dst=%d,salt=%d) is %d->%d, oracle says %d"
          what at dst salt l.Link.src l.Link.dst hop)
    samples

(* Downing fabric links never routes onto a dead link, and restoring
   them recovers the exact pre-failure ECMP table. *)
let ecmp_restore_qcheck =
  QCheck.Test.make ~name:"link down/up restores the exact ECMP table" ~count:25
    QCheck.(pair small_nat (int_range 1 4))
    (fun (seed, nfail) ->
      let topo = Topology.build params in
      let samples = sample_table topo in
      check_matches_oracle ~what:"all links up (before)" topo samples;
      let pairs = Faultplan.fabric_pairs topo in
      let rng = Rng.create (seed + 1) in
      let downed = Array.init nfail (fun _ -> Rng.choose rng pairs) in
      Array.iter
        (fun (a, b) ->
          (Topology.link topo ~src:a ~dst:b).Link.up <- false;
          (Topology.link topo ~src:b ~dst:a).Link.up <- false)
        downed;
      List.iter
        (fun (at, dst, salt, _) ->
          let got = Routing.next_hop_alive topo ~at ~dst ~salt in
          if got <> Routing.blackhole
             && not (Topology.link topo ~src:at ~dst:got).Link.up
          then
            QCheck.Test.fail_reportf
              "routed onto dead link %d->%d (dst=%d salt=%d)" at got dst salt;
          let id = Routing.next_link_alive topo ~at ~dst ~salt in
          if id <> Routing.blackhole then begin
            let l = Topology.link_of_id topo id in
            if l.Link.src <> at || not l.Link.up then
              QCheck.Test.fail_reportf
                "next_link_alive chose dead or foreign link %d->%d (at=%d \
                 dst=%d salt=%d)"
                l.Link.src l.Link.dst at dst salt
          end)
        samples;
      Array.iter
        (fun (a, b) ->
          (Topology.link topo ~src:a ~dst:b).Link.up <- true;
          (Topology.link topo ~src:b ~dst:a).Link.up <- true)
        downed;
      check_matches_oracle ~what:"after restore" topo samples;
      true)

(* Killing every uplink of a ToR blackholes inter-rack traffic from
   that ToR (no silent misrouting). *)
let test_blackhole_when_all_uplinks_dead () =
  let topo = Topology.build params in
  let hosts = Topology.hosts topo in
  let tor_of h =
    let other = if h = hosts.(0) then hosts.(1) else hosts.(0) in
    Routing.next_hop topo ~at:h ~dst:other ~salt:0
  in
  let t0 = tor_of hosts.(0) in
  let far =
    match Array.to_list hosts |> List.find_opt (fun h -> tor_of h <> t0) with
    | Some h -> h
    | None -> Alcotest.fail "topology has a single rack?"
  in
  Array.iter
    (fun sp -> (Topology.link topo ~src:t0 ~dst:sp).Link.up <- false)
    (Topology.uplinks topo t0);
  Alcotest.(check int) "inter-rack from dead-uplink ToR blackholes"
    Routing.blackhole
    (Routing.next_hop_alive topo ~at:t0 ~dst:far ~salt:0);
  Array.iter
    (fun sp -> (Topology.link topo ~src:t0 ~dst:sp).Link.up <- true)
    (Topology.uplinks topo t0);
  Alcotest.(check int) "restored"
    (Routing.next_hop topo ~at:t0 ~dst:far ~salt:0)
    (Routing.next_hop_alive topo ~at:t0 ~dst:far ~salt:0);
  (* End to end: the same ToR routes into [blackhole] for every packet
     of a flow toward [far]. The network tests for the sentinel before
     it looks up a link, and counts each drop at the blackhole site. *)
  let net = Network.create topo ~scheme:(Schemes.Baselines.direct ()) in
  Network.install_faults net
    {
      Fault.seed = 1;
      specs =
        Array.map
          (fun sp ->
            { Fault.at = Time_ns.zero; action = Fault.Link_down (t0, sp) })
          (Topology.uplinks topo t0);
    };
  let vms_per_host = params.Params.vms_per_host in
  let vip_of h =
    let rec index i = if hosts.(i) = h then i else index (i + 1) in
    Vip.of_int (index 0 * vms_per_host)
  in
  let packets = 5 in
  Network.run net
    [
      Flow.make ~id:0 ~pkt_bytes:1500 ~src_vip:(vip_of hosts.(0))
        ~dst_vip:(vip_of far) ~size_bytes:(packets * 1500)
        ~start:(Time_ns.of_us 10)
        (Flow.Udp { rate_bps = 1e10 });
    ]
    ~migrations:[] ~until:(Time_ns.of_ms 1);
  let m = Network.metrics net in
  Alcotest.(check int) "every packet dropped at the blackhole" packets
    (List.assoc "fault_blackhole" (Netsim.Metrics.drops_by_site m));
  Alcotest.(check int) "nothing delivered" 0
    (Netsim.Metrics.delivered_packets m);
  Alcotest.(check int) "conservation" (Network.injected_packets net)
    (Netsim.Metrics.packets_dropped m + Network.live_packets net)

(* ---------------------------------------------------------------- *)
(* Plan text round-trip.                                            *)

let plan_roundtrip_qcheck =
  QCheck.Test.make ~name:"generated plans round-trip through text" ~count:50
    QCheck.small_nat (fun seed ->
      let topo = Topology.build params in
      let plan = Faultplan.generate ~seed ~horizon:(Time_ns.of_ms 20) topo in
      let s = Fault.to_string plan in
      match Fault.of_string s with
      | Error e -> QCheck.Test.fail_reportf "of_string failed: %s on %s" e s
      | Ok plan' ->
          if Fault.to_string plan' <> s then
            QCheck.Test.fail_reportf "round-trip changed the plan: %s" s;
          if Array.length plan'.Fault.specs <> Array.length plan.Fault.specs
          then QCheck.Test.fail_reportf "round-trip changed spec count";
          true)

(* ---------------------------------------------------------------- *)
(* Pipeline reset hook.                                             *)

let test_reset_wipes_switchv2p_caches () =
  let topo = Topology.build params in
  let scheme, dp =
    Schemes.Switchv2p_scheme.make_with_dataplane topo ~total_cache_slots:64
  in
  let net = Network.create topo ~scheme in
  let num_vms = Network.num_vms net in
  let flows =
    List.init 12 (fun id ->
        Flow.make ~pkt_bytes:1500 ~id ~src_vip:(Vip.of_int (id mod num_vms))
          ~dst_vip:(Vip.of_int ((id + 3) mod num_vms))
          ~size_bytes:(6 * 1500) ~start:(Time_ns.of_us (10 * id))
          Flow.Tcpish)
  in
  Network.run net flows ~migrations:[] ~until:(Time_ns.of_ms 20);
  let occupancy () =
    Array.fold_left
      (fun acc sw ->
        acc + Switchv2p.Cache.occupancy (Switchv2p.Dataplane.cache dp ~switch:sw))
      0 (Topology.switches topo)
  in
  Alcotest.(check bool) "caches populated by the workload" true (occupancy () > 0);
  Array.iter
    (fun sw -> Pipeline.reset_switch scheme.Netsim.Scheme.pipeline ~switch:sw)
    (Topology.switches topo);
  Alcotest.(check int) "reset_switch wipes every cache" 0 (occupancy ())

(* ---------------------------------------------------------------- *)
(* Conservation under randomized fault plans, every scheme.          *)

let conservation_qcheck =
  QCheck.Test.make
    ~name:"packet conservation under random fault plans (all schemes)"
    ~count:10
    QCheck.(pair (int_range 0 99_999) (int_range 0 4))
    (fun (seed, si) ->
      let scheme = List.nth Dst.all_schemes si in
      let o = Dst.run_one ~seed ~scheme () in
      match
        List.filter (fun (inv, _) -> inv = "packet-conservation") o.Dst.failures
      with
      | [] -> true
      | (_, detail) :: _ ->
          QCheck.Test.fail_reportf "seed=%d scheme=%s: %s@.replay: %s" seed
            scheme detail
            (Dst.replay_command ~seed ~scheme))

let () =
  Alcotest.run "faults"
    [
      ( "loss-models",
        [
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
          Alcotest.test_case "gilbert-elliott rate" `Quick
            test_gilbert_elliott_rate;
          Alcotest.test_case "no_loss draws nothing" `Quick
            test_no_loss_draws_nothing;
          Alcotest.test_case "one-shot corruption" `Quick test_corrupt_one_shot;
        ] );
      ( "routing",
        [
          QCheck_alcotest.to_alcotest ecmp_restore_qcheck;
          Alcotest.test_case "all uplinks dead => blackhole" `Quick
            test_blackhole_when_all_uplinks_dead;
        ] );
      ( "plans",
        [ QCheck_alcotest.to_alcotest plan_roundtrip_qcheck ] );
      ( "reset",
        [
          Alcotest.test_case "reset_switch wipes switchv2p caches" `Quick
            test_reset_wipes_switchv2p_caches;
        ] );
      ( "conservation",
        [ QCheck_alcotest.to_alcotest conservation_qcheck ] );
    ]
