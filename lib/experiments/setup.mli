(** Experiment setups: topologies and trace sizes at several scales.

    [`Tiny] is for unit tests (sub-second runs), [`Small] is the bench
    default — the same FatTree shape as the paper's FT8-10K with fewer
    hosts/VMs so the full suite finishes in minutes — and [`Paper]
    builds the full Table 3 topologies. Shapes (who wins, crossovers)
    are stable across scales; absolute numbers are not. *)

type scale = [ `Tiny | `Small | `Paper ]

type t = {
  topo : Topo.Topology.t;
  num_vms : int;
  agg_bps : float;  (** aggregate host bandwidth, for load accounting *)
  seed : int;
}

(** [ft8 scale] — the FT8-10K family (gateway pods on half the pods). *)
val ft8 : ?seed:int -> scale -> t

(** [ft16 scale] — the FT16-400K family (used with the Alibaba trace).
    [`Paper] here is very large; [`Small] keeps 8 pods. *)
val ft16 : ?seed:int -> scale -> t

(** {2 Per-domain topology factory}

    Parallel sweeps ({!Parallel.map}) run tasks on several domains, but
    a topology holds per-run mutable link state and must not be shared
    across domains. A [spec] is an immutable recipe for a setup; tasks
    carry the spec and call {!pooled} from whichever domain executes
    them, obtaining a domain-local realization (built on first use,
    then reused by later tasks on the same domain — the same
    reuse-after-reset model sequential runs always had). *)

type family = [ `FT8 | `FT16 | `Custom of Topo.Params.t ]

type spec = { family : family; scale : scale; seed : int }

val spec_ft8 : ?seed:int -> scale -> spec

(** [realize spec] builds a fresh setup (never pooled). *)
val realize : spec -> t

(** [pooled spec] is the calling domain's realization of [spec]. *)
val pooled : spec -> t

(** [cache_slots t ~pct] is the aggregate cache size equal to [pct]% of
    the VIP space (the paper's cache-size axis). *)
val cache_slots : t -> pct:int -> int

(** The shared default network load (fraction of [agg_bps]) every
    trace generator below runs at. *)
val load : float

(** Standard traces at a size proportional to the setup's VM count.
    [flows_per_vm] controls the reuse density (the paper's Hadoop has
    ~10 flows per destination VM). Scenario streams
    ({!Netsim.Scenario.stream}) generate the same flows and cover all
    six traces. *)

val hadoop_trace : ?flows_per_vm:float -> t -> Netcore.Flow.t list
val websearch_trace : ?flows_per_vm:float -> t -> Netcore.Flow.t list
val alibaba_trace : ?rpcs_per_vm:float -> t -> Netcore.Flow.t list

(** [horizon flows] — a simulation end time comfortably after the last
    flow start. *)
val horizon : Netcore.Flow.t list -> Dessim.Time_ns.t
