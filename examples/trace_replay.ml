(* Trace replay: generate an Alibaba-like microservice RPC trace (hot
   callees, request/response pairs) and replay it under every
   translation scheme, printing a comparison table — the experiment
   that motivates in-network caching for east-west RPC traffic.

   Run with: dune exec examples/trace_replay.exe *)

module Topology = Topo.Topology

let () =
  let setup = Experiments.Setup.ft16 `Tiny in
  let topo = setup.Experiments.Setup.topo in
  let flows = Experiments.Setup.alibaba_trace setup in
  Printf.printf "Replaying %d RPC flows over %d VMs on %d switches\n\n"
    (List.length flows) setup.Experiments.Setup.num_vms
    (Array.length (Topology.switches topo));
  let until = Experiments.Setup.horizon flows in
  (* Two cache regimes: at small caches, fewer-but-larger caches
     (GwCache) can edge out the distributed design; at larger caches
     SwitchV2P pulls ahead — the crossover the paper describes. *)
  List.iter
    (fun pct ->
      let slots = Experiments.Setup.cache_slots setup ~pct in
      Printf.printf "--- aggregate cache = %d%% of VIP space (%d entries) ---\n"
        pct slots;
      Printf.printf "%-14s %9s %10s %10s %9s\n" "scheme" "hit-rate" "mean-FCT"
        "mean-FPL" "stretch";
      List.iter
        (fun (name, scheme) ->
          let r =
            Experiments.Runner.run setup
              ~make_scheme:(fun ~shard:_ -> scheme)
              ~flows ~migrations:[] ~until
          in
          Printf.printf "%-14s %8.1f%% %8.1fus %8.1fus %9.2f\n" name
            (100.0 *. r.Experiments.Runner.hit_rate)
            (r.Experiments.Runner.mean_fct *. 1e6)
            (r.Experiments.Runner.mean_fpl *. 1e6)
            r.Experiments.Runner.stretch)
        [
          ("NoCache", Schemes.Baselines.nocache ());
          ("OnDemand", Schemes.Baselines.ondemand ());
          ("GwCache", Schemes.Baselines.gwcache ~topo ~total_slots:slots);
          ( "LocalLearning",
            Schemes.Baselines.locallearning ~topo ~total_slots:slots );
          ( "SwitchV2P",
            Schemes.Switchv2p_scheme.make topo ~total_cache_slots:slots );
          ("Direct", Schemes.Baselines.direct ());
        ];
      print_newline ())
    [ 50; 400 ]
