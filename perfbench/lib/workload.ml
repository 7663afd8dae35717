module Time_ns = Dessim.Time_ns
module Setup = Experiments.Setup

type name = Hadoop_v2p | Websearch_direct | Churn_v2p | Ft16_alibaba

let all = [ Hadoop_v2p; Websearch_direct; Churn_v2p; Ft16_alibaba ]

let to_string = function
  | Hadoop_v2p -> "hadoop_v2p"
  | Websearch_direct -> "websearch_direct"
  | Churn_v2p -> "churn_v2p"
  | Ft16_alibaba -> "ft16_alibaba"

let of_string s = List.find_opt (fun w -> to_string w = s) all

type scale = Full | Tiny

type t = {
  name : name;
  seed : int;
  setup : Setup.t;
  flows : Netcore.Flow.t list;
  faults : Dessim.Fault.plan option;
  until : Time_ns.t;
  config : Netsim.Network.config;
  make_scheme : unit -> Netsim.Scheme.t;
      (** a fresh scheme instance per network: schemes hold per-run
          switch state *)
}

(* Every random input derives from the one workload seed: the
   topology/trace seed is the seed itself, the network and churn-plan
   RNGs get decorrelated streams of it. *)
let derive seed tag = Hashtbl.hash (seed, tag) land 0x3FFF_FFFF

let topology name scale ~seed =
  let scale = match scale with Full -> `Small | Tiny -> `Tiny in
  match name with
  | Hadoop_v2p | Websearch_direct | Churn_v2p -> Setup.ft8 ~seed scale
  | Ft16_alibaba ->
      Setup.ft16 ~seed (match scale with `Small -> `Paper | s -> s)

(* The default 0.5 websearch flows/VM completes only 336 flows on FT8
   Small; 1.6 gives more than 1,000, enough for a p99 with ten samples
   beyond it. *)
let websearch_flows_per_vm = 1.6

let flows name setup =
  match name with
  | Hadoop_v2p | Churn_v2p -> Setup.hadoop_trace setup
  | Websearch_direct ->
      Setup.websearch_trace ~flows_per_vm:websearch_flows_per_vm setup
  | Ft16_alibaba -> Setup.alibaba_trace ~rpcs_per_vm:0.05 setup

(* ONCache-style migration storm: 200K mappings/s for 20 ms (4,000
   remaps on FT8 Small, several per VM), starting a quarter of the way
   into the arrivals so it lands on warm caches and live flows. *)
let churn_plan ~seed (flows : Netcore.Flow.t list) =
  let last =
    List.fold_left
      (fun acc (f : Netcore.Flow.t) -> max acc (Time_ns.to_ns f.start))
      0 flows
  in
  let storm =
    Workloads.Container_churn.make
      ~start:(Time_ns.of_ns (last / 4))
      ~kind:Workloads.Container_churn.Migration_storm ~rate:200_000.
      ~duration:(Time_ns.of_ms 20) ()
  in
  {
    Dessim.Fault.seed = derive seed "churn";
    specs =
      Dessim.Fault.sort_specs
        (Array.of_list (Workloads.Container_churn.churn_specs storm));
  }

let cache_pct = function
  | Hadoop_v2p | Churn_v2p -> Some 50
  | Ft16_alibaba -> Some 10
  | Websearch_direct -> None

let make_scheme name (setup : Setup.t) () =
  match cache_pct name with
  | Some pct ->
      Schemes.Switchv2p_scheme.make setup.Setup.topo
        ~total_cache_slots:(Setup.cache_slots setup ~pct)
  | None -> Schemes.Baselines.direct ()

(* Topology and input generation are recorded as the [setup.topo] and
   [setup.flows] spans; with [Network.create] ([setup.net], around
   {!network}) they make up the benchmark's [setup_s]. *)
let build ?(scale = Full) ~spans name ~seed =
  let setup = Tracer.span spans "setup.topo" (fun () -> topology name scale ~seed) in
  let flows, faults =
    Tracer.span spans "setup.flows" (fun () ->
        let flows = flows name setup in
        let faults =
          match name with
          | Churn_v2p -> Some (churn_plan ~seed flows)
          | _ -> None
        in
        (flows, faults))
  in
  {
    name;
    seed;
    setup;
    flows;
    faults;
    until = Setup.horizon flows;
    config =
      { Netsim.Network.default_config with seed = derive seed "network" };
    make_scheme = make_scheme name setup;
  }

(** [network t scheme] builds the run's network and installs its fault
    plan. *)
let network t scheme =
  let net =
    Netsim.Network.create ~config:t.config t.setup.Setup.topo ~scheme
  in
  Option.iter (Netsim.Network.install_faults net) t.faults;
  net
