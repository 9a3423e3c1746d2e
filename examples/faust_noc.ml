(* FAUST case study: a CHP-modeled asynchronous NoC router is
   translated to MVL, verified formally, composed into a chain with
   compositional minimization, and its packet latency predicted under
   contention - the FAUST workflow of the paper's SS2-4.

   Run with: dune exec examples/faust_noc.exe *)

module Router = Mv_faust.Router
module Noc = Mv_faust.Noc
module Flow = Mv_core.Flow
module Net = Mv_compose.Net
module Report = Mv_core.Report

let () =
  let config = Flow.Config.default in
  (* 1. Verify the router (CHP -> MVL -> LTS -> model checking) *)
  let v =
    Flow.Run.verify config (Router.closed_spec ~id:"r0")
      (Router.properties ~id:"r0")
  in
  Format.printf "router under saturating traffic: %a@." Mv_lts.Lts.pp v.Flow.lts;
  List.iter
    (fun r ->
       Printf.printf "  %-45s %s\n" r.Flow.property_name
         (if r.Flow.holds then "holds" else "VIOLATED"))
    v.Flow.results;
  let spec = Router.single_packet_spec ~id:"r0" ~input:0 ~dest:1 in
  let v1 =
    Flow.Run.verify config spec [ Router.delivery_property ~id:"r0" ~dest:1 ]
  in
  List.iter
    (fun r ->
       Printf.printf "  %-45s %s\n" r.Flow.property_name
         (if r.Flow.holds then "holds" else "VIOLATED"))
    v1.Flow.results;

  (* 2. Compose routers into a chain, compositionally *)
  print_newline ();
  let node = Noc.chain ~length:3 in
  let mono = Net.evaluate ~strategy:`Monolithic node in
  let comp = Net.evaluate ~strategy:`Compositional node in
  Printf.printf "3-router chain: monolithic peak %d states, compositional %d\n"
    mono.Net.peak_states comp.Net.peak_states;
  Printf.printf "results branching-equivalent: %b\n"
    (Mv_bisim.Branching.equivalent mono.Net.result comp.Net.result);

  (* 3. The 2x2 mesh with XY routing: the naive shared-buffer router
     deadlocks under crossing traffic (the checker exhibits the
     head-of-line cycle); per-port input buffers fix it *)
  print_newline ();
  let flows = Mv_faust.Mesh.crossing_flows in
  (match Mv_faust.Mesh.deadlock_witness Mv_faust.Mesh.Shared_buffer ~flows with
   | Some t ->
     Printf.printf
       "2x2 mesh, shared-buffer routers: DEADLOCK after [%s]\n"
       (Mv_lts.Trace.to_string t)
   | None -> print_endline "2x2 mesh, shared-buffer routers: no deadlock (?)");
  let spec = Mv_faust.Mesh.spec Mv_faust.Mesh.Port_buffered ~flows in
  let vm = Flow.Run.verify config spec (Mv_faust.Mesh.properties ~flows) in
  Printf.printf "2x2 mesh, port-buffered routers: %d states, all properties %s\n"
    (Mv_lts.Lts.nb_states vm.Flow.lts)
    (if Flow.all_hold vm then "hold" else "VIOLATED");

  (* 4. Packet latency across hops, with and without cross traffic *)
  let rows =
    List.concat_map
      (fun hops ->
         List.map
           (fun cross ->
              let latency =
                Noc.mean_packet_latency ~hops ~inject:1.0 ~hop_rate:10.0 ~cross
              in
              [ string_of_int hops;
                (match cross with
                 | None -> "none"
                 | Some g -> Printf.sprintf "%.1f" g);
                Report.float_cell latency ])
           [ None; Some 4.0; Some 8.0 ])
      [ 1; 2; 4 ]
  in
  Report.table ~title:"mean packet latency (hop rate 10.0)"
    ~header:[ "hops"; "cross traffic"; "latency" ]
    rows
