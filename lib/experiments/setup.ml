module Time_ns = Dessim.Time_ns
module Rng = Dessim.Rng

type scale = [ `Tiny | `Small | `Paper ]

type t = {
  topo : Topo.Topology.t;
  num_vms : int;
  agg_bps : float;
  seed : int;
}

let wrap params seed =
  let topo = Topo.Topology.build params in
  {
    topo;
    num_vms = Topo.Params.num_vms params;
    agg_bps =
      float_of_int (Array.length (Topo.Topology.hosts topo))
      *. params.Topo.Params.host_link_bps;
    seed;
  }

(* The preset tables live in Netsim.Scenario so a committed scenario
   file and the programmatic setup can never drift apart. *)
let ft8 ?(seed = 42) scale = wrap (Netsim.Scenario.preset_params `FT8 scale) seed
let ft16 ?(seed = 42) scale = wrap (Netsim.Scenario.preset_params `FT16 scale) seed

let cache_slots t ~pct =
  if pct < 0 then invalid_arg "Setup.cache_slots: negative percentage";
  t.num_vms * pct / 100

let load = 0.3

let hadoop_trace ?(flows_per_vm = 8.0) t =
  let rng = Rng.create t.seed in
  Workloads.Tracegen.hadoop rng ~num_vms:t.num_vms
    ~num_flows:(int_of_float (flows_per_vm *. float_of_int t.num_vms))
    ~load ~agg_bps:t.agg_bps

let websearch_trace ?(flows_per_vm = 0.5) t =
  let rng = Rng.create t.seed in
  Workloads.Tracegen.websearch rng ~num_vms:t.num_vms
    ~num_flows:(int_of_float (flows_per_vm *. float_of_int t.num_vms))
    ~load ~agg_bps:t.agg_bps

let alibaba_trace ?(rpcs_per_vm = 4.0) t =
  let rng = Rng.create t.seed in
  Workloads.Tracegen.alibaba rng ~num_vms:t.num_vms
    ~num_rpcs:(int_of_float (rpcs_per_vm *. float_of_int t.num_vms))
    ~load ~agg_bps:t.agg_bps

let horizon flows =
  let last =
    List.fold_left
      (fun acc (f : Netcore.Flow.t) -> max acc (Time_ns.to_ns f.Netcore.Flow.start))
      0 flows
  in
  Time_ns.of_ns (last + Time_ns.to_ns (Time_ns.of_ms 40))

type family = [ `FT8 | `FT16 | `Custom of Topo.Params.t ]
type spec = { family : family; scale : scale; seed : int }

let spec_ft8 ?(seed = 42) scale = { family = `FT8; scale; seed }

let realize spec =
  match spec.family with
  | `FT8 -> ft8 ~seed:spec.seed spec.scale
  | `FT16 -> ft16 ~seed:spec.seed spec.scale
  | `Custom params -> wrap params spec.seed

(* One realized setup per (domain, spec): topologies carry per-run
   mutable link state (reset by [Network.create]), so they may be
   reused by consecutive runs on one domain — exactly the sequential
   execution model — but must never cross domains. [Domain.DLS] gives
   every worker its own pool; specs are tiny, so a small assoc list
   keyed by structural equality suffices. *)
let pool_key : (spec * t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let pooled spec =
  let pool = Domain.DLS.get pool_key in
  match List.assoc_opt spec !pool with
  | Some setup -> setup
  | None ->
      let setup = realize spec in
      pool := (spec, setup) :: !pool;
      setup
