(* Gateway fleet scaling (the Figure 9 scenario): shrink the number of
   translation gateway replicas and watch SwitchV2P hold its
   performance while the pure gateway design collapses — in-network
   caching absorbs the load the gateways would have served.

   Run with: dune exec examples/gateway_scaling.exe *)

module Topology = Topo.Topology

let () =
  let setup = Experiments.Setup.ft8 `Tiny in
  let topo = setup.Experiments.Setup.topo in
  let flows = Experiments.Setup.hadoop_trace setup in
  let until = Experiments.Setup.horizon flows in
  let total_gw = Array.length (Topology.gateways topo) in
  let slots = Experiments.Setup.cache_slots setup ~pct:100 in
  Printf.printf
    "Hadoop-like trace (%d flows); gateway fleet shrinking from %d to 1\n\n"
    (List.length flows) total_gw;
  Printf.printf "%-10s %-12s %10s %10s %8s\n" "gateways" "scheme" "mean-FCT"
    "gw-pkts" "drops";
  List.iter
    (fun k ->
      if k >= 1 then begin
        List.iter
          (fun (name, make_scheme) ->
            let net_config =
              { Netsim.Network.default_config with gateways_used = Some k }
            in
            let r =
              Experiments.Runner.run ~net_config setup
                ~make_scheme:(fun ~shard:_ -> make_scheme ())
                ~flows ~migrations:[] ~until
            in
            Printf.printf "%-10d %-12s %8.1fus %10d %8d\n" k name
              (r.Experiments.Runner.mean_fct *. 1e6)
              r.Experiments.Runner.gw_packets
              r.Experiments.Runner.packets_dropped)
          [
            ("NoCache", fun () -> Schemes.Baselines.nocache ());
            ( "SwitchV2P",
              fun () -> Schemes.Switchv2p_scheme.make topo ~total_cache_slots:slots );
          ];
        print_newline ()
      end)
    [ total_gw; total_gw / 2; 1 ]
