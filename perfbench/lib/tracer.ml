(* Layer attribution from outside the program: the benchmark wraps the
   Netsim.Scheme.t record it hands to Network.create and times every
   call the network makes into it. Nothing under lib/ changes.

   Hot spans (one per pipeline dispatch or host hook) are aggregated in
   place rather than stored one by one: a span count and a summed
   duration per name, with int nanoseconds from CLOCK_MONOTONIC so the
   wrapper itself allocates nothing. *)

module Engine = Dessim.Engine
module Time_ns = Dessim.Time_ns
module Verdict = Switchv2p.Verdict
module Pipeline = Netsim.Pipeline
module Scheme = Netsim.Scheme
module Packet = Netcore.Packet

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(** Coarse spans at the benchmark's own call boundaries (set-up stages,
    [Network.run]), in completion order: [(name, ns)]. *)
type spans = (string * int) list ref

let span (spans : spans) name f =
  let r, ns = time f in
  spans := (name, ns) :: !spans;
  r

let span_ns (spans : spans) name = List.assoc name !spans

(* Capacity of the (at, dst, salt) sample of Routing.next_hop inputs. *)
let hop_cap = 1 lsl 15

type t = {
  mutable pipeline_ns : int;
  mutable dispatches : int;
  mutable forwards : int;
      (** dispatches whose verdict sends the packet on to another node,
          i.e. that cost one [Routing.next_hop] call *)
  mutable host_ns : int;
  mutable host_calls : int;
  mutable mapping_writes : int;
  hops : int array;  (** sampled next_hop inputs, stride 3 *)
  mutable nhops : int;
  mutable hop_stride : int;
  mutable hop_skip : int;
}

let create () =
  {
    pipeline_ns = 0;
    dispatches = 0;
    forwards = 0;
    host_ns = 0;
    host_calls = 0;
    mapping_writes = 0;
    hops = Array.make (3 * hop_cap) 0;
    nhops = 0;
    hop_stride = 1;
    hop_skip = 1;
  }

(* Systematic sample over the whole run in bounded memory: when the
   buffer fills, keep every other entry and halve the sampling rate. *)
let record_hop t ~at ~dst ~salt =
  t.hop_skip <- t.hop_skip - 1;
  if t.hop_skip = 0 then begin
    if t.nhops = hop_cap then begin
      for i = 0 to (hop_cap / 2) - 1 do
        Array.blit t.hops (6 * i) t.hops (3 * i) 3
      done;
      t.nhops <- hop_cap / 2;
      t.hop_stride <- 2 * t.hop_stride
    end;
    let o = 3 * t.nhops in
    t.hops.(o) <- at;
    t.hops.(o + 1) <- dst;
    t.hops.(o + 2) <- salt;
    t.nhops <- t.nhops + 1;
    t.hop_skip <- t.hop_stride
  end

(* Network.forward_from's ECMP salt. *)
let salt_of (pkt : Packet.t) =
  if pkt.Packet.flow_id >= 0 then pkt.Packet.flow_id else pkt.Packet.id

let host_span t t0 =
  t.host_ns <- t.host_ns + (now_ns () - t0);
  t.host_calls <- t.host_calls + 1

(** [wrap t s] is [s] with every pipeline dispatch and host hook timed
    into [t]. The inner pipeline runs unchanged (same stages, same RNG
    draws), so the simulation is identical to one run on [s]. *)
let wrap t (s : Scheme.t) : Scheme.t =
  let inner = s.Scheme.pipeline in
  let exec (env : Pipeline.env) ~switch ~from pkt =
    let t0 = now_ns () in
    let v = Pipeline.run inner env ~switch ~from pkt in
    t.pipeline_ns <- t.pipeline_ns + (now_ns () - t0);
    t.dispatches <- t.dispatches + 1;
    let tag = Verdict.tag v in
    if tag = Verdict.tag_forward || tag = Verdict.tag_delay then begin
      let dst = Topo.Topology.node_of_pip env.Pipeline.topo pkt.Packet.dst_pip in
      if dst <> switch then begin
        t.forwards <- t.forwards + 1;
        record_hop t ~at:switch ~dst ~salt:(salt_of pkt)
      end
    end;
    v
  in
  let pipeline =
    Pipeline.make ~attach:(Pipeline.attach inner)
      ~prepare:(Pipeline.prepare inner)
      ~reset:(fun ~switch -> Pipeline.reset_switch inner ~switch)
      [
        Pipeline.stage ~kind:Pipeline.Classify
          ~probe:(fun tel ~now_sec -> Pipeline.probe inner tel ~now_sec)
          "traced" exec;
      ]
  in
  {
    s with
    Scheme.pipeline;
    resolve_at_host =
      (fun env ~host ~flow_id ~dst_vip ->
        let t0 = now_ns () in
        let r = s.Scheme.resolve_at_host env ~host ~flow_id ~dst_vip in
        host_span t t0;
        r);
    on_misdelivery =
      (fun env ~host pkt ->
        let t0 = now_ns () in
        let r = s.Scheme.on_misdelivery env ~host pkt in
        host_span t t0;
        r);
    on_mapping_update =
      (fun env vip ~old_pip ~new_pip ->
        let t0 = now_ns () in
        s.Scheme.on_mapping_update env vip ~old_pip ~new_pip;
        host_span t t0;
        t.mapping_writes <- t.mapping_writes + 1);
  }

type pending = { mutable peak : int; mutable ticks : int }

(** [sample_pending p engine ~until ~interval] schedules a self-renewing
    observer thunk that records in [p] the engine's largest
    pending-event count, every [interval] of simulated time up to
    [until], and the number of thunks it ran (engine events the caller
    must discount). *)
let sample_pending p engine ~until ~interval =
  let rec tick () =
    p.ticks <- p.ticks + 1;
    p.peak <- max p.peak (Engine.pending engine);
    let next = Time_ns.add (Engine.now engine) interval in
    if Time_ns.compare next until <= 0 then Engine.schedule engine ~at:next tick
  in
  Engine.schedule engine ~at:interval tick

(** [clock_cost ()] is [(inside, outside)]: the nanoseconds one empty
    span adds inside its own measured interval, and the rest of its
    cost, which lands in the enclosing span. *)
let clock_cost () =
  let n = 1_000_000 in
  let inside = ref 0 in
  let start = now_ns () in
  for _ = 1 to n do
    let t0 = now_ns () in
    inside := !inside + (now_ns () - t0)
  done;
  let total = now_ns () - start in
  let inside = float_of_int !inside /. float_of_int n in
  (inside, Float.max 0. ((float_of_int total /. float_of_int n) -. inside))
