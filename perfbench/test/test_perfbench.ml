(* Tiny-scale checks of the benchmark itself: every workload passes its
   output check, wrapping the scheme for tracing changes no simulated
   result, and the traced spans satisfy the self-time identity. *)

open Perfbench

let seed = 7

let untraced_passes name () =
  let r = Measure.untraced ~scale:Workload.Tiny name ~seed in
  Alcotest.(check (list string)) "no check failures" [] r.Measure.errors;
  Alcotest.(check bool) "flows completed" true
    (List.assoc "flow_fail_frac" r.Measure.fields < 1.)

let wrapper_keeps_digest name () =
  let w = Workload.build ~scale:Workload.Tiny ~spans:(ref []) name ~seed in
  let run make_scheme = Measure.run_once w ~spans:(ref []) make_scheme in
  let base = run w.Workload.make_scheme in
  let tr = Tracer.create () in
  let traced = run (fun () -> Tracer.wrap tr (w.Workload.make_scheme ())) in
  Alcotest.(check string) "digest" (Measure.digest base.Measure.sim)
    (Measure.digest traced.Measure.sim);
  Alcotest.(check bool) "pipeline dispatches observed" true
    (tr.Tracer.dispatches > 0)

let self_time_identity name () =
  let r = Measure.traced ~scale:Workload.Tiny name ~seed in
  Alcotest.(check (list string)) "no check failures" [] r.Measure.errors;
  let f k = List.assoc k r.Measure.fields in
  let total = f "network.run_s" in
  Alcotest.(check (float (1e-9 *. Float.max 1. total)))
    "pipeline + host + network self = network.run" total
    (f "pipeline.self_s" +. f "host.self_s" +. f "network.self_s");
  let self_sum =
    List.fold_left
      (fun acc (name, parent, _, _, self) ->
        if name = "network.run" || parent = "network.run" then acc +. self
        else acc)
      0. r.Measure.spans
  in
  Alcotest.(check (float (1e-9 *. Float.max 1. total)))
    "span self times sum to network.run" total self_sum

let same_seed_same_inputs () =
  let flows name =
    (Workload.build ~scale:Workload.Tiny ~spans:(ref []) name ~seed)
      .Workload.flows
  in
  Alcotest.(check bool) "same seed" true
    (flows Workload.Churn_v2p = flows Workload.Churn_v2p);
  let other =
    (Workload.build ~scale:Workload.Tiny ~spans:(ref []) Workload.Churn_v2p
       ~seed:(seed + 1))
      .Workload.flows
  in
  Alcotest.(check bool) "other seed" false (flows Workload.Churn_v2p = other)

let pinned_env_refused () =
  let saved = Option.value ~default:"" (Sys.getenv_opt "REPRO_SCHED") in
  Unix.putenv "REPRO_SCHED" "heap";
  let set = Measure.pinned_env_set () in
  Unix.putenv "REPRO_SCHED" saved;
  Alcotest.(check bool) "REPRO_SCHED refused" true (List.mem "REPRO_SCHED" set)

let reference_deterministic () =
  let run () = Reference.run (Reference.create ()) ~events:20_000 in
  Alcotest.(check int) "same checksum" (run ()) (run ())

let per_workload name f =
  List.map
    (fun w -> Alcotest.test_case (Workload.to_string w) `Quick (f w))
    Workload.all
  |> fun cases -> (name, cases)

let () =
  Alcotest.run "perfbench"
    [
      per_workload "output check" untraced_passes;
      per_workload "wrapper digest" wrapper_keeps_digest;
      per_workload "self-time identity" self_time_identity;
      ( "inputs",
        [
          Alcotest.test_case "seeded" `Quick same_seed_same_inputs;
          Alcotest.test_case "pinned env refused" `Quick pinned_env_refused;
        ] );
      ( "reference kernel",
        [ Alcotest.test_case "deterministic" `Quick reference_deterministic ] );
    ]
