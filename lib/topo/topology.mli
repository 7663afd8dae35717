(** FatTree topology instance: nodes, links, and index structures.

    Node ids double as PIPs ({!Netcore.Addr.Pip}). Endpoint nodes
    (hosts and gateways) hang off ToRs; ToRs connect to every spine in
    their pod; spine [g] of every pod connects to all core switches of
    group [g]. *)

type t

(** [build params] constructs the topology. Raises [Invalid_argument]
    via {!Params.validate} on bad parameters. *)
val build : Params.t -> t

val params : t -> Params.t

(** [num_nodes t] is the total node count (endpoints + switches). *)
val num_nodes : t -> int

(** [num_links t] is the total directed-link count (each physical cable
    is two directed links). *)
val num_links : t -> int

(** [node t id] is the node record. Raises [Invalid_argument] for out
    of range ids. *)
val node : t -> int -> Node.t

val kind : t -> int -> Node.kind

(** [pip t id] is the node's physical address. *)
val pip : t -> int -> Netcore.Addr.Pip.t

(** [node_of_pip t pip] is the inverse of {!pip}. *)
val node_of_pip : t -> Netcore.Addr.Pip.t -> int

(** Index accessors: all arrays are stable across calls. *)

val hosts : t -> int array
(** regular servers, in (pod, rack, idx) order *)

val gateways : t -> int array
val tors : t -> int array
val spines : t -> int array
val cores : t -> int array

(** [switches t] is ToRs, spines and cores concatenated. *)
val switches : t -> int array

(** [tor_of t id] is the ToR an endpoint attaches to.
    Raises [Invalid_argument] if [id] is a switch. *)
val tor_of : t -> int -> int

(** [endpoints_of_tor t tor] is the endpoints (hosts or gateways)
    attached to [tor]. *)
val endpoints_of_tor : t -> int -> int array

(** [tor_id t ~pod ~rack] / [spine_id t ~pod ~group] /
    [core_id t ~group ~idx] are structural lookups. *)
val tor_id : t -> pod:int -> rack:int -> int

val spine_id : t -> pod:int -> group:int -> int
val core_id : t -> group:int -> idx:int -> int

(** [role t id] is the switch category; raises [Invalid_argument] if
    [id] is not a switch. *)
val role : t -> int -> Node.role

(** [link t ~src ~dst] is the directed link between adjacent nodes,
    [link_of_id t (link_id t ~src ~dst)]. Raises [Not_found] if they
    are not adjacent. *)
val link : t -> src:int -> dst:int -> Link.t

(** [link_id t ~src ~dst] is the id of the directed link between
    adjacent nodes: its index in CSR order, in [[0, num_links t)].
    Raises [Not_found] if they are not adjacent. A binary search of
    [src]'s CSR row (at most max-degree long), for control-plane
    lookups by endpoint pair; packet hops get their link id from
    {!Routing.next_link} instead. *)
val link_id : t -> src:int -> dst:int -> int

(** [link_of_id t id] is link [id]. Unchecked: [lib/topo] is compiled
    with [-unsafe], so [id] must be a valid link id — in particular a
    routing result must be compared with {!Routing.blackhole} first. *)
val link_of_id : t -> int -> Link.t

(** [iter_links t f] applies [f] to every directed link, in CSR order
    (ascending source id, then ascending destination id). *)
val iter_links : t -> (Link.t -> unit) -> unit

(** [neighbors t id] is the adjacent node ids, sorted ascending. The
    returned rows are the topology's own CSR views — stable across
    calls; treat them as read-only. *)
val neighbors : t -> int -> int array

(** [uplinks t id] is the precomputed upward ECMP candidate table of
    node [id]: a ToR's row is its pod's spines indexed by group, a
    spine's row is its group's core switches indexed by idx, and
    endpoints/cores have an empty row. Rows are shared with the
    topology's internal indexes — treat them as read-only. This is the
    candidate table the fault plan generator draws from; the link ids
    of the same candidates, in the same order, are {!fwd}'s [tor_up]
    and [spine_up] rows. *)
val uplinks : t -> int -> int array

(** {2 Forwarding tables}

    What a packet hop reads instead of searching: each node's packed
    routing coordinates, and the id of every directed link filed under
    its forwarding role. Filled by {!build} in the same pass that lays
    out the CSR rows. *)

(** Packed coordinates of a node: tier in bits 0-2, then three 16-bit
    fields — pod (0 for cores), rack (endpoints, ToRs) or group
    (spines, cores), and idx (endpoints, cores; 0 otherwise). *)
val tier_host : int

val tier_gateway : int
val tier_tor : int
val tier_spine : int
val tier_core : int
val coord_tier : int -> int
val coord_pod : int -> int
val coord_rg : int -> int
val coord_idx : int -> int

(** The tables, by link role. [P], [R], [S] and [C] are [pods],
    [racks], [spines_per_pod] and [cores_per_group]; every entry is a
    link id. Rows are shared with the topology — treat as read-only. *)
type fwd = private {
  coord : int array;  (** node id -> packed coordinates *)
  ep_up : int array;  (** endpoint id -> endpoint->ToR link *)
  ep_down : int array;  (** endpoint id -> ToR->endpoint link *)
  tor_up : int array;
      (** [((pod*R)+rack)*S + group] -> ToR->spine link; row order is
          {!uplinks}' *)
  spine_down : int array;  (** [((pod*S)+group)*R + rack] -> spine->ToR *)
  spine_up : int array;
      (** [((pod*S)+group)*C + idx] -> spine->core link; row order is
          {!uplinks}' *)
  core_down : int array;  (** [((group*C)+idx)*P + pod] -> core->spine *)
  pods : int;
  racks : int;
  spines_per_pod : int;
  cores_per_group : int;
}

val fwd : t -> fwd

(** [tier t id] is node [id]'s tier, [coord_tier (fwd t).coord.(id)]. *)
val tier : t -> int -> int

(** [up_link t ep] is the id of endpoint [ep]'s link to its ToR —
    where every host send and reforward leaves. [ep] must be an
    endpoint (unchecked). *)
val up_link : t -> int -> int

(** [attached_endpoint_pips t tor] is the set of PIPs of servers and
    gateways directly attached to [tor] — the front-panel-port table
    ToRs use to detect misdelivered packets (§3.3). *)
val attached_endpoint_pips : t -> int -> Netcore.Addr.Pip.t array
