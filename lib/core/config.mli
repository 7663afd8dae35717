(** SwitchV2P protocol configuration and ablation toggles. *)

(** How the aggregate cache budget is divided among switches (§4,
    "Heterogeneous memory allocation"). *)
type allocation =
  | Uniform  (** equal share per switch — the paper's default *)
  | Tor_only  (** all memory in ToRs (the §4 Hadoop observation) *)
  | Weighted of {
      tor : float;
      spine : float;
      core : float;
      gw_tor : float;
      gw_spine : float;
    }
      (** per-role weights; a switch's share is its role weight
          normalized over all switches. Negative weights are invalid. *)

(** Cache organization for every switch's V2P cache. [Geo_direct] is
    the paper's direct-mapped single-access-bit design; [Geo_dleft d]
    is a d-left table ([d] subtables, independent hashes): the
    dataplane builds each {!Cache} with [~ways:d], which rounds the
    switch's slot share down to a multiple of [d]. *)
type geometry = Geo_direct | Geo_dleft of int

type t = {
  p_learn : float;
      (** probability of emitting a learning packet per resolved packet
          processed at a gateway ToR; the paper's default is 0.5% *)
  learning_packets : bool;  (** §3.2.2 learning packets *)
  spillover : bool;  (** §3.2.2 cache spillover *)
  promotion : bool;  (** §3.2.2 promotion of popular entries to cores *)
  source_learning : bool;  (** ToR source learning *)
  invalidations : bool;  (** §3.3 invalidation packets *)
  ts_vector : bool;  (** §3.3 timestamp vector rate limiting *)
  allocation : allocation;
  geometry : geometry;  (** cache organization; the paper's is direct *)
  tinylfu : bool;
      (** attach the {!Tinylfu} frequency-admission filter to each
          cache (4-bit count-min sketch, admit-on-higher-estimate) *)
}

(** The paper's default configuration: everything on, P_learn = 0.005,
    uniform allocation. *)
val default : t

(** [make ()] is [default] with optional overrides. [tor_only] is a
    shorthand for [~allocation:Tor_only]. *)
val make :
  ?p_learn:float ->
  ?learning_packets:bool ->
  ?spillover:bool ->
  ?promotion:bool ->
  ?source_learning:bool ->
  ?invalidations:bool ->
  ?ts_vector:bool ->
  ?tor_only:bool ->
  ?allocation:allocation ->
  ?geometry:geometry ->
  ?tinylfu:bool ->
  unit ->
  t
