(* One benchmark process: build one workload from its seed, run it once
   (untraced, or untraced + traced with --trace) and print one JSON
   line with the metrics, the output check and the provenance of the
   program under test. perfbench/run.py repeats this and aggregates.
   [--reference] instead times the fixed reference kernel (a reading
   of the host's speed) and prints it. *)

module Json = Dessim.Telemetry.Json
module Workload = Perfbench.Workload
module Measure = Perfbench.Measure

let usage () =
  prerr_endline
    ("usage: main.exe --workload {"
    ^ String.concat "|" (List.map Workload.to_string Workload.all)
    ^ "} [--seed N] [--trace]\n       main.exe --reference");
  exit 2

let () =
  (match Measure.pinned_env_set () with
  | [] -> ()
  | set ->
      prerr_endline
        ("perfbench: refusing to run with " ^ String.concat ", " set
       ^ " set; unset it to measure the default program");
      exit 2);
  if Array.to_list Sys.argv = [ Sys.argv.(0); "--reference" ] then begin
    print_endline
      (Json.to_string (Json.Obj [ ("ref_s", Json.Float (Measure.reference_s ())) ]));
    exit 0
  end;
  let workload = ref None and seed = ref 42 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match Workload.of_string w with
        | Some w -> workload := Some w
        | None -> usage ());
        parse rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with Some n -> seed := n | None -> usage ());
        parse rest
    | "--trace" :: rest ->
        trace := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let name = match !workload with Some w -> w | None -> usage () in
  let r =
    (if !trace then Measure.traced else Measure.untraced) name ~seed:!seed
  in
  let num f = Json.Float f in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.Str (Workload.to_string name));
            ("seed", Json.Int !seed);
            ("ok", Json.Bool r.Measure.ok);
            ("errors", Json.List (List.map (fun e -> Json.Str e) r.errors));
            ("digest", Json.Str r.digest);
            ("sched", Json.Str r.sched);
            ("git_rev", Json.Str (Experiments.Report.git_rev ()));
            ("nproc", Json.Int (Domain.recommended_domain_count ()));
            ("ocaml", Json.Str Sys.ocaml_version);
            ("metrics", Json.Obj (List.map (fun (k, v) -> (k, num v)) r.fields));
            ( "spans",
              Json.List
                (List.map
                   (fun (name, parent, count, total, self) ->
                     Json.Obj
                       [
                         ("name", Json.Str name);
                         ("parent", Json.Str parent);
                         ("count", Json.Int count);
                         ("total_s", num total);
                         ("self_s", num self);
                       ])
                   r.spans) );
          ]))
