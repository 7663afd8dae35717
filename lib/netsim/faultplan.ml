module Fault = Dessim.Fault
module Rng = Dessim.Rng
module Time_ns = Dessim.Time_ns
module Topology = Topo.Topology

type profile = {
  link_failures : int;
  loss_links : int;
  corruptions : int;
  switch_failures : int;
  gateway_outages : int;
  churn_storms : int;
  churn_batch : int;
  churn_batches : int;
  churn_interval : Time_ns.t;
}

let default_profile =
  {
    link_failures = 2;
    loss_links = 2;
    corruptions = 2;
    switch_failures = 2;
    gateway_outages = 1;
    churn_storms = 1;
    churn_batch = 4;
    churn_batches = 3;
    churn_interval = Time_ns.of_ms 1;
  }

let fabric_pairs topo =
  let pairs = ref [] in
  Array.iter
    (fun sw ->
      match Topology.kind topo sw with
      | Topo.Node.Tor _ | Topo.Node.Spine _ ->
          Array.iter
            (fun up -> pairs := (sw, up) :: !pairs)
            (Topology.uplinks topo sw)
      | _ -> ())
    (Topology.switches topo);
  Array.of_list (List.rev !pairs)

let generate ?(profile = default_profile) ~seed ~horizon topo =
  let rng = Rng.create seed in
  let specs = ref [] in
  let add at action = specs := { Fault.at; action } :: !specs in
  (* Heal deadline: every window closes by 6/10 of the horizon, so
     transports have the remaining 40% to drain retransmissions. *)
  let heal_by = max 2 (horizon * 6 / 10) in
  let window () =
    let lo = heal_by / 8 and hi = heal_by / 2 in
    let down = lo + Rng.int rng (max 1 (hi - lo)) in
    let up = down + 1 + Rng.int rng (max 1 (heal_by - down - 1)) in
    (down, min up heal_by)
  in
  let one_shot_at () = 1 + Rng.int rng (max 1 (heal_by - 1)) in
  let pairs = fabric_pairs topo in
  if Array.length pairs > 0 then begin
    for _ = 1 to profile.link_failures do
      let a, b = pairs.(Rng.int rng (Array.length pairs)) in
      let down, up = window () in
      add down (Fault.Link_down (a, b));
      add down (Fault.Link_down (b, a));
      add up (Fault.Link_up (a, b));
      add up (Fault.Link_up (b, a))
    done;
    for _ = 1 to profile.loss_links do
      let a, b = pairs.(Rng.int rng (Array.length pairs)) in
      let down, up = window () in
      let model =
        if Rng.bool rng then Fault.Bernoulli (0.01 +. (0.09 *. Rng.float rng))
        else
          Fault.Gilbert_elliott
            {
              Fault.p_enter_bad = 0.02 +. (0.08 *. Rng.float rng);
              p_exit_bad = 0.2 +. (0.3 *. Rng.float rng);
              loss_good = 0.0;
              loss_bad = 0.3 +. (0.4 *. Rng.float rng);
            }
      in
      add down (Fault.Set_loss (a, b, model));
      add up (Fault.Set_loss (a, b, Fault.No_loss))
    done;
    for _ = 1 to profile.corruptions do
      let a, b = pairs.(Rng.int rng (Array.length pairs)) in
      add (one_shot_at ()) (Fault.Corrupt_next (a, b))
    done
  end;
  let switches = Topology.switches topo in
  for _ = 1 to profile.switch_failures do
    add (one_shot_at ())
      (Fault.Switch_fail (switches.(Rng.int rng (Array.length switches))))
  done;
  let gws = Topology.gateways topo in
  if Array.length gws > 0 then
    for _ = 1 to profile.gateway_outages do
      let g = gws.(Rng.int rng (Array.length gws)) in
      let down, up = window () in
      add down (Fault.Gateway_down g);
      add up (Fault.Gateway_up g)
    done;
  for _ = 1 to profile.churn_storms do
    let t0 = one_shot_at () in
    for i = 0 to profile.churn_batches - 1 do
      add (t0 + (i * profile.churn_interval)) (Fault.Churn profile.churn_batch)
    done
  done;
  { Fault.seed; specs = Fault.sort_specs (Array.of_list (List.rev !specs)) }
