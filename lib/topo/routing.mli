(** Structural ECMP routing over the FatTree.

    Next hops are computed from node coordinates (no learned routing
    state): up via a hash-selected spine/core, down via the unique
    descending path. A hop's result is the id of the link it leaves
    on, read from the link-id tables {!Topology.build} lays out. The
    selection hash is deterministic in [(salt, hop)] so a flow follows
    a stable path (per-flow ECMP, as in the paper) while different
    flows spread across the fabric.

    Destinations may be endpoints or switches — the latter is how
    learning and invalidation packets reach a specific switch. *)

(** [next_link topo ~at ~dst ~salt] is the id (see
    {!Topology.link_of_id}) of the link [at] forwards on toward node
    [dst]; its [src] is [at].

    Raises [Invalid_argument] if [at = dst] (the packet has arrived)
    or if [dst] is unreachable from [at] (cannot happen on a connected
    FatTree).

    This is the forwarding hot path: it reads the packed coordinates
    of [at] and [dst] and one {!Topology.fwd} link-id table — no row
    search, no allocation. *)
val next_link : Topology.t -> at:int -> dst:int -> salt:int -> int

(** Sentinel returned by {!next_link_alive} and {!next_hop_alive} when
    every candidate is behind a downed link. Never a valid link id or
    node id: check for it before {!Topology.link_of_id}. *)
val blackhole : int

(** [next_link_alive topo ~at ~dst ~salt] is {!next_link} made
    fault-aware: candidate links with [Link.up = false] are skipped by
    probing the ECMP candidate ring from the hashed index, and
    {!blackhole} is returned when no live candidate remains (a forced
    hop with a dead link, or all siblings dead). When every link is up
    it returns exactly [next_link topo ~at ~dst ~salt] — link recovery
    therefore restores the pre-failure ECMP table (property-tested
    against {!next_hop_oracle}). Allocates nothing. *)
val next_link_alive : Topology.t -> at:int -> dst:int -> salt:int -> int

(** [next_hop topo ~at ~dst ~salt] is the neighbor of [at] on a path
    toward node [dst]: the [dst] of {!next_link}'s link. *)
val next_hop : Topology.t -> at:int -> dst:int -> salt:int -> int

(** [next_hop_alive topo ~at ~dst ~salt] is the [dst] of
    {!next_link_alive}'s link, or {!blackhole}. *)
val next_hop_alive : Topology.t -> at:int -> dst:int -> salt:int -> int

(** [next_hop_oracle] is the original implementation that recomputes
    candidate sets from node coordinates on every call (allocating the
    spine's core candidate array each time). It returns the same hop
    as {!next_hop} for every [(at, dst, salt)]; kept as the reference
    for property tests. *)
val next_hop_oracle : Topology.t -> at:int -> dst:int -> salt:int -> int

(** [path topo ~src ~dst ~salt] is the full node path from [src] to
    [dst], inclusive of both ends. *)
val path : Topology.t -> src:int -> dst:int -> salt:int -> int list

(** [hop_count topo ~src ~dst ~salt] is the number of links on
    [path topo ~src ~dst ~salt], counted directly without building the
    path list. *)
val hop_count : Topology.t -> src:int -> dst:int -> salt:int -> int

(** [ecmp_hash ~salt ~a ~b] is the deterministic hash used for path
    selection; exposed for tests. *)
val ecmp_hash : salt:int -> a:int -> b:int -> int
