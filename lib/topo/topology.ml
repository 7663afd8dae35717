(* Forwarding tables, filled in the CSR pass of [build]: a packet hop
   reads the packed coordinates of [at] and [dst] and indexes one of
   these link-id tables, so it never searches a CSR row. *)
type fwd = {
  coord : int array; (* node id -> packed (tier, pod, rack|group, idx) *)
  ep_up : int array; (* endpoint id -> endpoint->ToR link *)
  ep_down : int array; (* endpoint id -> ToR->endpoint link *)
  tor_up : int array; (* ((pod*R)+rack)*S + group -> ToR->spine link *)
  spine_down : int array; (* ((pod*S)+group)*R + rack -> spine->ToR link *)
  spine_up : int array; (* ((pod*S)+group)*C + idx -> spine->core link *)
  core_down : int array; (* ((group*C)+idx)*P + pod -> core->spine link *)
  pods : int; (* P *)
  racks : int; (* R, racks per pod *)
  spines_per_pod : int; (* S, also the number of core groups *)
  cores_per_group : int; (* C *)
}

type t = {
  params : Params.t;
  nodes : Node.t array;
  hosts : int array;
  gateways : int array;
  tors : int array;
  spines : int array;
  cores : int array;
  switches : int array;
  tor_of : int array; (* endpoint id -> tor id; -1 for switches *)
  endpoints_of_tor : int array array; (* indexed by tor position in [tors] *)
  tor_pos : int array; (* node id -> position in [tors]; -1 otherwise *)
  tor_ids : int array array; (* pod -> rack -> id *)
  spine_ids : int array array; (* pod -> group -> id *)
  core_ids : int array array; (* group -> idx -> id *)
  (* CSR adjacency: node [id]'s row spans [csr_off.(id), csr_off.(id+1))
     in [csr_nbr] (neighbor ids, sorted ascending) and [csr_links] (the
     directed link -> neighbor at the same index); a link's id is its
     index. O(n + E) words at any scale; [link_id] is a binary search
     over a row of at most max-degree entries, for control-plane
     lookups by endpoint pair (packet hops use [fwd] instead). *)
  csr_off : int array; (* length n+1 *)
  csr_nbr : int array; (* length E (directed edges) *)
  csr_links : Link.t array; (* length E, parallel to csr_nbr *)
  neighbors : int array array;
      (* per-node views of the CSR rows (sorted ascending); built once,
         rows are stable across calls — treat as read-only *)
  uplinks : int array array;
      (* node id -> upward ECMP candidates: ToR -> its pod's spines
         (indexed by group), spine -> its group's cores (indexed by
         idx), [||] for endpoints and cores. Rows alias [spine_ids] /
         [core_ids]; never mutate. *)
  fwd : fwd;
}

(* Packed routing coordinates: 3 tier bits, then three 16-bit fields
   (pod; rack for endpoints and ToRs, group for spines and cores; idx
   for endpoints and cores). Cores carry pod 0, ToRs and spines idx 0. *)
let tier_host = 0
let tier_gateway = 1
let tier_tor = 2
let tier_spine = 3
let tier_core = 4
let coord_mask = 0xFFFF
let coord_tier c = c land 7
let coord_pod c = (c lsr 3) land coord_mask
let coord_rg c = (c lsr 19) land coord_mask
let coord_idx c = (c lsr 35) land coord_mask
let pack tier ~pod ~rg ~idx =
  tier lor (pod lsl 3) lor (rg lsl 19) lor (idx lsl 35)

let coord_of_kind = function
  | Node.Host { pod; rack; idx } -> pack tier_host ~pod ~rg:rack ~idx
  | Node.Gateway { pod; rack; idx } -> pack tier_gateway ~pod ~rg:rack ~idx
  | Node.Tor { pod; rack; _ } -> pack tier_tor ~pod ~rg:rack ~idx:0
  | Node.Spine { pod; group; _ } -> pack tier_spine ~pod ~rg:group ~idx:0
  | Node.Core { group; idx } -> pack tier_core ~pod:0 ~rg:group ~idx

let params t = t.params
let num_nodes t = Array.length t.nodes
let num_links t = Array.length t.csr_links

let node t id =
  if id < 0 || id >= Array.length t.nodes then
    invalid_arg "Topology.node: id out of range";
  t.nodes.(id)

let kind t id = (node t id).Node.kind
let pip (_ : t) id = Netcore.Addr.Pip.of_int id
let node_of_pip (_ : t) pip = Netcore.Addr.Pip.to_int pip
let hosts t = t.hosts
let gateways t = t.gateways
let tors t = t.tors
let spines t = t.spines
let cores t = t.cores
let switches t = t.switches

let tor_of t id =
  let tor = t.tor_of.(id) in
  if tor < 0 then invalid_arg "Topology.tor_of: not an endpoint";
  tor

let endpoints_of_tor t tor =
  let pos = t.tor_pos.(tor) in
  if pos < 0 then invalid_arg "Topology.endpoints_of_tor: not a ToR";
  t.endpoints_of_tor.(pos)

let tor_id t ~pod ~rack = t.tor_ids.(pod).(rack)
let spine_id t ~pod ~group = t.spine_ids.(pod).(group)
let core_id t ~group ~idx = t.core_ids.(group).(idx)

let role t id =
  match Node.role_of_kind (kind t id) with
  | Some r -> r
  | None -> invalid_arg "Topology.role: not a switch"

(* Control-plane lookup (fault installation, scenario validation): a
   bounded binary search of the source's CSR row. Packet hops never
   call it — they carry the link id that [Routing.next_link] read from
   [fwd]. Top level with every operand passed explicitly, so no
   closure is allocated per call. *)
let rec csr_search nbr dst lo hi =
  if lo >= hi then raise Not_found
  else
    let mid = (lo + hi) lsr 1 in
    let v = nbr.(mid) in
    if v = dst then mid
    else if v < dst then csr_search nbr dst (mid + 1) hi
    else csr_search nbr dst lo mid

let link_id t ~src ~dst =
  if src < 0 || src >= Array.length t.nodes then raise Not_found;
  csr_search t.csr_nbr dst t.csr_off.(src) t.csr_off.(src + 1)

let link t ~src ~dst = t.csr_links.(link_id t ~src ~dst)
let link_of_id t id = t.csr_links.(id)
let fwd t = t.fwd
let tier t id = coord_tier t.fwd.coord.(id)
let up_link t ep = t.fwd.ep_up.(ep)
let iter_links t f = Array.iter f t.csr_links
let neighbors t id = t.neighbors.(id)
let uplinks t id = t.uplinks.(id)

let attached_endpoint_pips t tor =
  Array.map (pip t) (endpoints_of_tor t tor)

let build (p : Params.t) =
  Params.validate p;
  if
    List.exists
      (fun d -> d > coord_mask)
      [
        p.pods;
        p.racks_per_pod;
        p.spines_per_pod;
        p.cores_per_group;
        p.hosts_per_rack;
        p.gateways_per_gateway_pod;
      ]
  then invalid_arg "Topology.build: a dimension exceeds 65535";
  let gateway_pod p' = List.mem p' p.gateway_pods in
  (* The last rack of a gateway pod is the gateway rack. *)
  let gateway_rack pod rack = gateway_pod pod && rack = p.racks_per_pod - 1 in
  let next_id = ref 0 in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  let nodes = ref [] in
  let add kind =
    let id = fresh () in
    nodes := { Node.id; kind } :: !nodes;
    id
  in
  (* Endpoints first (compact PIPs for hosts), then switches. *)
  let hosts = ref [] and gateways = ref [] in
  let endpoints = Array.make_matrix p.pods p.racks_per_pod [||] in
  for pod = 0 to p.pods - 1 do
    for rack = 0 to p.racks_per_pod - 1 do
      if gateway_rack pod rack then begin
        let ids =
          Array.init p.gateways_per_gateway_pod (fun idx ->
              let id = add (Node.Gateway { pod; rack; idx }) in
              gateways := id :: !gateways;
              id)
        in
        endpoints.(pod).(rack) <- ids
      end
      else begin
        let ids =
          Array.init p.hosts_per_rack (fun idx ->
              let id = add (Node.Host { pod; rack; idx }) in
              hosts := id :: !hosts;
              id)
        in
        endpoints.(pod).(rack) <- ids
      end
    done
  done;
  let tor_ids =
    Array.init p.pods (fun pod ->
        Array.init p.racks_per_pod (fun rack ->
            add (Node.Tor { pod; rack; gateway_tor = gateway_rack pod rack })))
  in
  let spine_ids =
    Array.init p.pods (fun pod ->
        Array.init p.spines_per_pod (fun group ->
            add (Node.Spine { pod; group; gateway_spine = gateway_pod pod })))
  in
  let core_ids =
    Array.init p.spines_per_pod (fun group ->
        Array.init p.cores_per_group (fun idx -> add (Node.Core { group; idx })))
  in
  let nodes =
    let arr = Array.of_list (List.rev !nodes) in
    Array.iteri (fun i n -> assert (n.Node.id = i)) arr;
    arr
  in
  let n = Array.length nodes in
  (* Per-node (neighbor, link) rows, collected in construction order
     and flattened into CSR below. *)
  let adjacency = Array.make n [] in
  let connect a b rate =
    let mk src dst =
      ( dst,
        Link.make ~ecn_threshold:p.ecn_threshold_bytes ~src ~dst ~rate_bps:rate
          ~prop_delay:p.prop_delay ~buffer_bytes:p.buffer_bytes )
    in
    adjacency.(a) <- mk a b :: adjacency.(a);
    adjacency.(b) <- mk b a :: adjacency.(b)
  in
  let tor_of = Array.make n (-1) in
  let tor_pos = Array.make n (-1) in
  (* Endpoint <-> ToR links. *)
  for pod = 0 to p.pods - 1 do
    for rack = 0 to p.racks_per_pod - 1 do
      let tor = tor_ids.(pod).(rack) in
      Array.iter
        (fun ep ->
          tor_of.(ep) <- tor;
          connect ep tor p.host_link_bps)
        endpoints.(pod).(rack)
    done
  done;
  (* ToR <-> spine (full bipartite per pod). *)
  for pod = 0 to p.pods - 1 do
    Array.iter
      (fun tor ->
        Array.iter (fun spine -> connect tor spine p.fabric_link_bps) spine_ids.(pod))
      tor_ids.(pod)
  done;
  (* Spine <-> core (group-wise). *)
  for group = 0 to p.spines_per_pod - 1 do
    Array.iter
      (fun core ->
        for pod = 0 to p.pods - 1 do
          connect spine_ids.(pod).(group) core p.fabric_link_bps
        done)
      core_ids.(group)
  done;
  let tors = Array.concat (Array.to_list tor_ids) in
  let spines = Array.concat (Array.to_list spine_ids) in
  let cores = Array.concat (Array.to_list core_ids) in
  Array.iteri (fun pos tor -> tor_pos.(tor) <- pos) tors;
  let endpoints_of_tor =
    Array.map
      (fun tor ->
        match nodes.(tor).Node.kind with
        | Node.Tor { pod; rack; _ } -> endpoints.(pod).(rack)
        | _ -> assert false)
      tors
  in
  let no_uplinks = [||] in
  let uplinks =
    Array.map
      (fun node ->
        match node.Node.kind with
        | Node.Tor { pod; _ } -> spine_ids.(pod)
        | Node.Spine { group; _ } -> core_ids.(group)
        | Node.Host _ | Node.Gateway _ | Node.Core _ -> no_uplinks)
      nodes
  in
  (* Flatten adjacency into CSR: sort each row by neighbor id (the
     binary search in [link_id] depends on it), then fill the flat
     offset/neighbor/link arrays. The FatTree constructor connects each
     node pair exactly once; the duplicate check makes that a hard
     invariant rather than a silent last-writer-wins. *)
  let rows =
    Array.map
      (fun l ->
        let row = Array.of_list l in
        Array.sort (fun (a, _) (b, _) -> Int.compare a b) row;
        Array.iteri
          (fun i (d, _) ->
            if i > 0 && fst row.(i - 1) = d then
              invalid_arg "Topology.build: duplicate link")
          row;
        row)
      adjacency
  in
  let csr_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    csr_off.(i + 1) <- csr_off.(i) + Array.length rows.(i)
  done;
  let num_links = csr_off.(n) in
  let csr_nbr = Array.make num_links (-1) in
  let csr_links =
    let seed = ref None in
    Array.iter
      (fun row -> if !seed = None && Array.length row > 0 then seed := Some (snd row.(0)))
      rows;
    match !seed with
    | None -> [||]
    | Some l -> Array.make num_links l
  in
  (* The same pass files each link id under its forwarding role, so a
     packet hop indexes a table instead of searching a row. Endpoint ids
     are [0, num_endpoints): endpoints are created first. *)
  let num_endpoints = List.length !hosts + List.length !gateways in
  let pods = p.pods and racks = p.racks_per_pod in
  let per_pod = p.spines_per_pod and per_group = p.cores_per_group in
  let coord = Array.make n 0 in
  let ep_up = Array.make num_endpoints (-1) in
  let ep_down = Array.make num_endpoints (-1) in
  let tor_up = Array.make (pods * racks * per_pod) (-1) in
  let spine_down = Array.make (pods * per_pod * racks) (-1) in
  let spine_up = Array.make (pods * per_pod * per_group) (-1) in
  let core_down = Array.make (per_pod * per_group * pods) (-1) in
  Array.iteri
    (fun i row ->
      let src = nodes.(i).Node.kind in
      coord.(i) <- coord_of_kind src;
      Array.iteri
        (fun j (d, l) ->
          let id = csr_off.(i) + j in
          csr_nbr.(id) <- d;
          csr_links.(id) <- l;
          match (src, nodes.(d).Node.kind) with
          | (Node.Host _ | Node.Gateway _), _ -> ep_up.(i) <- id
          | Node.Tor _, (Node.Host _ | Node.Gateway _) -> ep_down.(d) <- id
          | Node.Tor { pod; rack; _ }, Node.Spine { group; _ } ->
              tor_up.((((pod * racks) + rack) * per_pod) + group) <- id
          | Node.Spine { pod; group; _ }, Node.Tor { rack; _ } ->
              spine_down.((((pod * per_pod) + group) * racks) + rack) <- id
          | Node.Spine { pod; group; _ }, Node.Core { idx; _ } ->
              spine_up.((((pod * per_pod) + group) * per_group) + idx) <- id
          | Node.Core { group; idx }, Node.Spine { pod; _ } ->
              core_down.((((group * per_group) + idx) * pods) + pod) <- id
          | (Node.Tor _ | Node.Spine _ | Node.Core _), _ ->
              invalid_arg "Topology.build: link outside the FatTree pattern")
        row)
    rows;
  {
    params = p;
    nodes;
    hosts = Array.of_list (List.rev !hosts);
    gateways = Array.of_list (List.rev !gateways);
    tors;
    spines;
    cores;
    switches = Array.concat [ tors; spines; cores ];
    tor_of;
    endpoints_of_tor;
    tor_pos;
    tor_ids;
    spine_ids;
    core_ids;
    csr_off;
    csr_nbr;
    csr_links;
    neighbors = Array.map (Array.map fst) rows;
    uplinks;
    fwd =
      {
        coord;
        ep_up;
        ep_down;
        tor_up;
        spine_down;
        spine_up;
        core_down;
        pods;
        racks;
        spines_per_pod = per_pod;
        cores_per_group = per_group;
      };
  }
