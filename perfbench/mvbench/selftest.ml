(* The benchmark's own test: every workload at smoke size, on the same
   code paths as the full runs, untraced and traced, on two seeds.
   Checks that every answer matches its golden value, that every
   metric has a well-formed name and a unit and is the one
   BENCHMARK.json declares, and that the layer self-times of each
   traced run cover at least 90% of its wall time. *)

module Json = Harness.Json

let well_formed name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '.' || c = '-')
       name

(* (name, unit) pairs of one section of BENCHMARK.json *)
let declared benchmark section =
  match Json.member section benchmark with
  | Some (Json.List metrics) ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.String n), Some (Json.String u) -> (n, u)
        | _ -> ("", ""))
      metrics
  | _ -> []

let run ~workloads ~golden_file ~benchmark =
  let benchmark =
    Json.of_string (In_channel.with_open_bin benchmark In_channel.input_all)
  in
  let scratch = Harness.fresh_dir (Printf.sprintf "mvbench-selftest.%d" (Unix.getpid ())) in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun w ->
      List.iter
        (fun (seed, trace) ->
          let label = Printf.sprintf "%s seed %d trace %b" w.Harness.name seed trace in
          let attempted, failed, metrics =
            Harness.run w ~size:Harness.Smoke ~seed ~seconds:0.0 ~trace ~golden_file
              ~scratch
          in
          Printf.printf "%s: %d attempted, %d failed\n%!" label attempted failed;
          if failed > 0 || attempted = 0 then fail "%s: %d of %d failed" label failed attempted;
          List.iter
            (fun (name, unit, v) ->
              if not (well_formed name) then fail "%s: bad metric name %S" label name;
              if unit = "" then fail "%s: metric %s has no unit" label name;
              if not (Float.is_finite v) then fail "%s: metric %s is %f" label name v)
            metrics;
          let names = List.map (fun (n, u, _) -> (n, u)) metrics in
          let section = if trace then "per_layer" else "end_to_end" in
          if names <> declared benchmark section then
            fail "%s: metrics differ from BENCHMARK.json %s" label section;
          if trace then begin
            let coverage =
              List.find_map (fun (n, _, v) -> if n = "trace.coverage" then Some v else None) metrics
            in
            match coverage with
            | Some c when c >= 0.9 -> ()
            | Some c -> fail "%s: layer self-times cover %.1f%% of the wall" label (100.0 *. c)
            | None -> fail "%s: no trace.coverage" label
          end)
        [ (1, false); (1, true); (7, false) ])
    workloads;
  Harness.remove_tree scratch;
  List.iter (fun p -> prerr_endline ("FAIL " ^ p)) (List.rev !problems);
  if !problems = [] then (print_endline "selftest ok"; 0) else 1
