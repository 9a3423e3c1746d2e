(* The Multival benchmark.

     mvbench.exe --workload NAME --seed N --seconds S --trace 0|1
                 --golden FILE --scratch DIR

   runs one workload in this process (so peak RSS is that workload's)
   and prints, as its last line, one JSON object: [correct],
   [attempted], [failed] and [metrics] — the end-to-end metrics, or
   with [--trace 1] the per-layer ones. [perfbench/run.py] builds this
   program and calls it; [mvbench.exe --selftest] runs every workload
   at smoke size (the benchmark's own test). *)

let workloads =
  [ Verify_chain.workload; Perf_tandem.workload; Ooc_grant.workload; Serve_mixed.workload ]

let usage () =
  prerr_endline
    "usage: mvbench.exe --workload NAME --seed N --seconds S --trace 0|1 --golden FILE \
     --scratch DIR\n       mvbench.exe --selftest --golden FILE --benchmark FILE";
  exit 2

let find name =
  match List.find_opt (fun w -> w.Harness.name = name) workloads with
  | Some w -> w
  | None ->
    prerr_endline ("unknown workload " ^ name);
    exit 2

let () =
  Mv_serve.Proto.ensure_sigpipe_ignored ();
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | "--selftest" :: rest -> opts (("--selftest", "") :: acc) rest
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      opts ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  if args = [ "--yardstick" ] then begin
    Calib.serve ();
    exit 0
  end;
  let opts = opts [] args in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  if List.mem_assoc "--selftest" opts then
    exit (Selftest.run ~workloads ~golden_file:(get "--golden") ~benchmark:(get "--benchmark"))
  else begin
    let w = find (get "--workload") in
    let trace =
      match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
    in
    let attempted, failed, metrics =
      Harness.run w ~size:Harness.Full ~seed:(int "--seed") ~seconds:(float (int "--seconds")) ~trace
        ~golden_file:(get "--golden") ~scratch:(get "--scratch")
    in
    Harness.print_result ~correct:(failed = 0 && attempted > 0) ~attempted ~failed metrics
  end
