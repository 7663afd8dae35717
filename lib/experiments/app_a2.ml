module Time_ns = Dessim.Time_ns

type cell = { hit : float; fct_x : float }
type t = { cache_pcts : int list; series : (string * cell array) list }

let run ?(scale = `Small) ?(cache_pcts = [ 1; 10; 50; 200 ]) () =
  let setup = Setup.ft8 scale in
  let topo = setup.Setup.topo in
  let flows = Setup.websearch_trace setup in
  let until = Setup.horizon flows in
  let exec scheme =
    Runner.run setup ~make_scheme:(fun ~shard:_ -> scheme) ~flows
      ~migrations:[] ~until
  in
  let base = exec (Schemes.Baselines.nocache ()) in
  let swept name make =
    ( name,
      Array.of_list
        (List.map
           (fun pct ->
             let slots = Setup.cache_slots setup ~pct in
             let r = exec (make slots) in
             {
               hit = r.Runner.hit_rate;
               fct_x =
                 Runner.improvement ~baseline:base.Runner.mean_fct
                   ~v:r.Runner.mean_fct;
             })
           cache_pcts) )
  in
  let series =
    [
      swept "Controller-150us" (fun slots ->
          Schemes.Controller.make ~topo ~total_slots:slots
            ~interval:(Time_ns.of_us 150) ());
      swept "Controller-300us" (fun slots ->
          Schemes.Controller.make ~topo ~total_slots:slots
            ~interval:(Time_ns.of_us 300) ());
      swept "SwitchV2P" (fun slots ->
          Schemes.Switchv2p_scheme.make topo ~total_cache_slots:slots);
      swept "GwCache" (fun slots ->
          Schemes.Baselines.gwcache ~topo ~total_slots:slots);
    ]
  in
  { cache_pcts; series }

let print t =
  let header =
    "scheme" :: List.map (fun p -> string_of_int p ^ "%") t.cache_pcts
  in
  Report.table ~title:"Appendix A.2: hit rate vs cache size (WebSearch)"
    ~header
    (List.map
       (fun (s, cells) ->
         s :: Array.to_list (Array.map (fun c -> Report.fpct c.hit) cells))
       t.series);
  Report.table ~title:"Appendix A.2: FCT improvement vs cache size (WebSearch)"
    ~header
    (List.map
       (fun (s, cells) ->
         s :: Array.to_list (Array.map (fun c -> Report.fx c.fct_x) cells))
       t.series)
