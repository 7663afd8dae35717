type row = { trace : string; stats : Workloads.Trace_stats.t }
type t = { rows : row list }

let run ?(scale = `Small) () =
  let kinds =
    Netsim.Scenario.[ Hadoop; Websearch; Alibaba; Microbursts; Video ]
  in
  (* No simulation here, but trace generation + analysis of five
     workloads still parallelizes cleanly. *)
  let task kind =
    ( "datasets/" ^ Fig5.trace_name kind,
      fun () ->
        Workloads.Trace_stats.analyze
          (Netsim.Scenario.flows
             (Netsim.Scenario.of_trace ~name:"datasets" scale kind [])) )
  in
  let rows =
    List.map2
      (fun kind stats -> { trace = Fig5.trace_name kind; stats })
      kinds
      (Parallel.map (List.map task kinds))
  in
  { rows }

let print t =
  Report.table ~title:"Datasets: address-reuse characteristics (paper §5)"
    ~header:
      [
        "trace";
        "flows";
        "dsts";
        ">=2 flows";
        ">=10 flows";
        "reuse";
        "reuse dist";
        "mean size";
      ]
    (List.map
       (fun r ->
         let s = r.stats in
         [
           r.trace;
           string_of_int s.Workloads.Trace_stats.flows;
           string_of_int s.Workloads.Trace_stats.distinct_destinations;
           string_of_int s.Workloads.Trace_stats.destinations_with_2_flows;
           string_of_int s.Workloads.Trace_stats.destinations_with_10_flows;
           Report.fpct (Workloads.Trace_stats.reuse_fraction s);
           Printf.sprintf "%.2fms"
             (s.Workloads.Trace_stats.mean_reuse_distance *. 1e3);
           Printf.sprintf "%.0fB" s.Workloads.Trace_stats.mean_flow_bytes;
         ])
       t.rows)
