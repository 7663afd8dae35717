let ecmp_hash ~salt ~a ~b =
  (* splitmix-style finalizer over the packed inputs, in native int
     arithmetic: the forwarding hot path calls this per hop, and boxed
     Int64 operations would allocate on every call without flambda.
     Multipliers are odd 61/62-bit constants derived from the
     splitmix64 ones. *)
  let z = (salt * 0x9E3779B9) lxor (a * 0x85EBCA6B) lxor (b * 0xC2B2AE35) in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  let z = z lxor (z lsr 31) in
  z land max_int

(* Link-indexed forwarding: one body serves both variants. The hop is
   resolved from the packed coordinates of [at] and [dst] and read out
   of a [Topology.fwd] link-id table — no CSR search, no [Node.kind]
   match, no allocation. [next_hop_oracle] below is the coordinate-
   computed reference the tables are property-tested against.

   With [alive], a forced hop (a unique next hop) whose link is down
   yields [blackhole], and an ECMP choice probes the candidate ring
   from the hashed index for the first live link. The probe stops at
   its first candidate when every link is up, so fault-free hops are
   identical under both variants (property-tested), and link recovery
   restores the pre-failure choice. *)
let blackhole = -1

(* [Topology]'s coordinate decoders, repeated here: the default dune
   profile compiles with -opaque, which turns each cross-module call
   into a closure call, and [route] decodes up to six fields per hop.
   A decoder that disagreed with [Topology.build]'s packing would
   misroute, which the oracle QCheck in test_topo.ml catches. *)
let coord_tier c = c land 7
let coord_pod c = (c lsr 3) land 0xFFFF
let coord_rg c = (c lsr 19) land 0xFFFF
let coord_idx c = (c lsr 35) land 0xFFFF
let live topo id = (Topology.link_of_id topo id).Link.up

(* First live link of the ring [tbl.(base + (start + i) mod n)],
   i = 0 .. n-1. Top level with every operand explicit: a local
   closure would allocate per call. *)
let rec probe topo tbl base n start i =
  if i = n then blackhole
  else
    let id = tbl.(base + ((start + i) mod n)) in
    if live topo id then id else probe topo tbl base n start (i + 1)

let forced topo ~alive id =
  if alive && not (live topo id) then blackhole else id

let ecmp topo ~alive tbl base n start =
  if alive then probe topo tbl base n start 0 else tbl.(base + start)

let route topo ~alive ~at ~dst ~salt =
  if at = dst then invalid_arg "Routing.next_link: already at destination";
  let f = Topology.fwd topo in
  let c = f.Topology.coord.(at) and dc = f.Topology.coord.(dst) in
  let tier = coord_tier c and dt = coord_tier dc in
  if tier <= Topology.tier_gateway then forced topo ~alive f.Topology.ep_up.(at)
  else if tier = Topology.tier_tor then begin
    let s = f.Topology.spines_per_pod in
    let pod = coord_pod c and rack = coord_rg c in
    let base = ((pod * f.Topology.racks) + rack) * s in
    if dt <= Topology.tier_gateway && coord_pod dc = pod && coord_rg dc = rack
    then (* an attached endpoint *)
      forced topo ~alive f.Topology.ep_down.(dst)
    else if dt >= Topology.tier_spine then
      (* Spine g, or a core of group g, is reached via spine g. *)
      forced topo ~alive f.Topology.tor_up.(base + coord_rg dc)
    else
      (* Any spine of this pod reaches any pod. *)
      ecmp topo ~alive f.Topology.tor_up base s
        (ecmp_hash ~salt ~a:at ~b:dst mod s)
  end
  else if tier = Topology.tier_spine then begin
    let r = f.Topology.racks and cores = f.Topology.cores_per_group in
    let pod = coord_pod c and group = coord_rg c in
    let pos = (pod * f.Topology.spines_per_pod) + group in
    if dt <= Topology.tier_tor && coord_pod dc = pod then
      forced topo ~alive f.Topology.spine_down.((pos * r) + coord_rg dc)
    else if dt = Topology.tier_core && coord_rg dc = group then
      forced topo ~alive f.Topology.spine_up.((pos * cores) + coord_idx dc)
    else if
      dt = Topology.tier_core
      || (dt = Topology.tier_spine && coord_rg dc <> group)
    then
      (* Wrong group: descend to a local ToR, which re-ascends via the
         right group. Only switch-addressed control packets that
         entered the fabric on the wrong group get here; one bounce
         corrects it. *)
      ecmp topo ~alive f.Topology.spine_down (pos * r) r
        (ecmp_hash ~salt ~a:at ~b:dst mod r)
    else if cores = 0 then
      invalid_arg "Routing.next_link: destination unreachable (no cores)"
    else
      (* Another pod, same group: transit any core of this group. *)
      ecmp topo ~alive f.Topology.spine_up (pos * cores) cores
        (ecmp_hash ~salt ~a:(at + dst) ~b:dst mod cores)
  end
  else if dt = Topology.tier_core then
    invalid_arg "Routing.next_link: core-to-core packets are not routable"
  else
    (* A core descends to the target pod's spine of its own group. *)
    let pos = (coord_rg c * f.Topology.cores_per_group) + coord_idx c in
    forced topo ~alive
      f.Topology.core_down.((pos * f.Topology.pods) + coord_pod dc)

let next_link topo ~at ~dst ~salt = route topo ~alive:false ~at ~dst ~salt
let next_link_alive topo ~at ~dst ~salt = route topo ~alive:true ~at ~dst ~salt

let next_hop topo ~at ~dst ~salt =
  (Topology.link_of_id topo (next_link topo ~at ~dst ~salt)).Link.dst

let next_hop_alive topo ~at ~dst ~salt =
  let l = next_link_alive topo ~at ~dst ~salt in
  if l = blackhole then blackhole else (Topology.link_of_id topo l).Link.dst

(* The original implementation: next hops recomputed from node
   coordinates on every call (including an [Array.init] of the core
   candidate set). Retained as the oracle for the table-based path. *)
let next_hop_oracle topo ~at ~dst ~salt =
  if at = dst then invalid_arg "Routing.next_hop: already at destination";
  let p = Topology.params topo in
  let dst_kind = Topology.kind topo dst in
  match Topology.kind topo at with
  | Node.Host _ | Node.Gateway _ -> Topology.tor_of topo at
  | Node.Tor { pod; _ } -> (
      match dst_kind with
      | Node.Host { pod = dp; _ } | Node.Gateway { pod = dp; _ }
        when dp = pod && Topology.tor_of topo dst = at ->
          dst
      | Node.Spine { pod = dp; group; _ } when dp = pod ->
          Topology.spine_id topo ~pod ~group
      | Node.Core { group; _ } -> Topology.spine_id topo ~pod ~group
      | Node.Spine { group; _ } -> Topology.spine_id topo ~pod ~group
      | Node.Host _ | Node.Gateway _ | Node.Tor _ ->
          let group = ecmp_hash ~salt ~a:at ~b:dst mod p.Params.spines_per_pod in
          Topology.spine_id topo ~pod ~group)
  | Node.Spine { pod; group; _ } -> (
      let down_in_pod dp dst =
        match dst with
        | Node.Host { rack; _ } | Node.Gateway { rack; _ } ->
            Topology.tor_id topo ~pod:dp ~rack
        | Node.Tor { rack; _ } -> Topology.tor_id topo ~pod:dp ~rack
        | Node.Spine _ | Node.Core _ -> assert false
      in
      match dst_kind with
      | (Node.Host { pod = dp; _ } | Node.Gateway { pod = dp; _ } | Node.Tor { pod = dp; _ })
        when dp = pod ->
          down_in_pod pod dst_kind
      | Node.Core { group = g; idx } when g = group ->
          Topology.core_id topo ~group ~idx
      | Node.Core _ ->
          let rack = ecmp_hash ~salt ~a:at ~b:dst mod p.Params.racks_per_pod in
          Topology.tor_id topo ~pod ~rack
      | Node.Spine { group = g; _ } when g <> group ->
          let rack = ecmp_hash ~salt ~a:at ~b:dst mod p.Params.racks_per_pod in
          Topology.tor_id topo ~pod ~rack
      | Node.Host _ | Node.Gateway _ | Node.Tor _ | Node.Spine _ ->
          if p.Params.cores_per_group = 0 then
            invalid_arg "Routing.next_hop: destination unreachable (no cores)"
          else
            let cores =
              Array.init p.Params.cores_per_group (fun idx ->
                  Topology.core_id topo ~group ~idx)
            in
            cores.(ecmp_hash ~salt ~a:(at + dst) ~b:dst
                   mod Array.length cores))
  | Node.Core { group; _ } -> (
      match dst_kind with
      | Node.Host { pod; _ } | Node.Gateway { pod; _ } | Node.Tor { pod; _ } ->
          Topology.spine_id topo ~pod ~group
      | Node.Spine { pod; group = _; _ } -> Topology.spine_id topo ~pod ~group
      | Node.Core _ ->
          invalid_arg "Routing.next_hop: core-to-core packets are not routable")

let path topo ~src ~dst ~salt =
  let rec go at acc guard =
    if guard > 64 then failwith "Routing.path: loop detected"
    else if at = dst then List.rev (dst :: acc)
    else go (next_hop topo ~at ~dst ~salt) (at :: acc) (guard + 1)
  in
  go src [] 0

let hop_count topo ~src ~dst ~salt =
  let rec go at n =
    if n > 64 then failwith "Routing.hop_count: loop detected"
    else if at = dst then n
    else go (next_hop topo ~at ~dst ~salt) (n + 1)
  in
  go src 0
