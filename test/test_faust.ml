(* Tests for mv_faust: the CHP router, its verification, chain
   composition, and the hop-latency model. *)

module Router = Mv_faust.Router
module Noc = Mv_faust.Noc
module Flow = Mv_core.Flow
module Net = Mv_compose.Net
module Lts = Mv_lts.Lts

let verify = Flow.Run.verify Flow.Config.default

let close ?(eps = 1e-8) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.8g, got %.8g" msg expected actual)
    true
    (abs_float (expected -. actual) <= eps)

let test_router_properties () =
  let spec = Router.closed_spec ~id:"t" in
  let v = verify spec (Router.properties ~id:"t") in
  Alcotest.(check bool) "all properties hold" true (Flow.all_hold v);
  Alcotest.(check (list int)) "no deadlocks" [] v.Flow.deadlock_states

let test_single_packet_delivery () =
  List.iter
    (fun (input, dest) ->
       let spec = Router.single_packet_spec ~id:"t" ~input ~dest in
       let v = verify spec [ Router.delivery_property ~id:"t" ~dest ] in
       Alcotest.(check bool)
         (Printf.sprintf "in%d -> out%d inevitable" input dest)
         true (Flow.all_hold v))
    [ (0, 0); (0, 1); (1, 0); (1, 1) ]

let test_misrouting_would_be_caught () =
  (* sanity of the property itself: a "router" that swaps outputs
     violates the misroute property *)
  let broken =
    Mv_calc.Parser.spec_of_string_checked
      {|
process Bad := in0_t ?d:int[0..1] ; ([d == 0] -> out1_t !d ; Bad [] [d == 1] -> out0_t !d ; Bad)
process Src := in0_t !0 ; Src [] in0_t !1 ; Src
process Sink0 := out0_t ?x:int[0..1] ; Sink0
process Sink1 := out1_t ?x:int[0..1] ; Sink1
init (Src |[in0_t]| Bad) |[out0_t, out1_t]| (Sink0 ||| Sink1)
|}
  in
  let v =
    verify broken
      [ ( "no misroute to port 0",
          Mv_mcl.Formula.Macro.never (Mv_mcl.Action_formula.Name "out0_t !1") ) ]
  in
  Alcotest.(check bool) "caught" false (Flow.all_hold v)

let test_router_lts_shape () =
  let lts = Router.lts ~id:"t" in
  Alcotest.(check bool) "nonempty" true (Lts.nb_states lts > 1);
  (* internal request channels are hidden *)
  let visible_gates =
    List.sort_uniq compare
      (List.map Mv_lts.Label.gate (Lts.occurring_labels lts))
  in
  Alcotest.(check (list string)) "only external ports and tau"
    [ "i"; "in0_t"; "in1_t"; "out0_t"; "out1_t" ]
    visible_gates

let test_chain_strategies () =
  let node = Noc.chain ~length:3 in
  let mono = Net.evaluate ~strategy:`Monolithic node in
  let comp = Net.evaluate ~strategy:`Compositional node in
  Alcotest.(check bool) "results equivalent" true
    (Mv_bisim.Branching.equivalent mono.Net.result comp.Net.result);
  Alcotest.(check bool) "compositional peak not larger" true
    (comp.Net.peak_states <= mono.Net.peak_states)

let test_hop_latency_uncontended () =
  (* without contention the packet latency is exactly hops/hop_rate *)
  List.iter
    (fun hops ->
       close
         (Printf.sprintf "%d hops" hops)
         (float_of_int hops /. 10.0)
         (Noc.mean_packet_latency ~hops ~inject:1.0 ~hop_rate:10.0 ~cross:None))
    [ 1; 2; 4 ]

let test_hop_latency_contention () =
  let free = Noc.mean_packet_latency ~hops:2 ~inject:1.0 ~hop_rate:10.0 ~cross:None in
  let light =
    Noc.mean_packet_latency ~hops:2 ~inject:1.0 ~hop_rate:10.0 ~cross:(Some 2.0)
  in
  let heavy =
    Noc.mean_packet_latency ~hops:2 ~inject:1.0 ~hop_rate:10.0 ~cross:(Some 8.0)
  in
  Alcotest.(check bool) "contention increases latency" true (free < light);
  Alcotest.(check bool) "monotone in load" true (light < heavy)

let test_latency_independent_of_injection_when_free () =
  (* closed single-packet loop: the injection rate only adds think
     time, which mean_packet_latency subtracts *)
  let l1 = Noc.mean_packet_latency ~hops:2 ~inject:0.5 ~hop_rate:10.0 ~cross:None in
  let l2 = Noc.mean_packet_latency ~hops:2 ~inject:4.0 ~hop_rate:10.0 ~cross:None in
  close "independent of think time" l1 l2

(* ---- 2x2 mesh ---- *)

let all_crossing_flows =
  Mv_faust.Mesh.[
    { node = (0, 0); dest = (1, 1) }; { node = (1, 0); dest = (0, 1) };
    { node = (0, 1); dest = (1, 0) }; { node = (1, 1); dest = (0, 0) } ]

let test_mesh_shared_buffer_deadlocks () =
  let flows = Mv_faust.Mesh.crossing_flows in
  match Mv_faust.Mesh.deadlock_witness Mv_faust.Mesh.Shared_buffer ~flows with
  | None -> Alcotest.fail "expected the head-of-line deadlock"
  | Some t ->
    (* the minimal witness: the two crossing injections *)
    Alcotest.(check int) "two-step witness" 2 (List.length t.Mv_lts.Trace.labels)

let test_mesh_port_buffered_verifies () =
  List.iter
    (fun flows ->
       let spec = Mv_faust.Mesh.spec Mv_faust.Mesh.Port_buffered ~flows in
       let v = verify spec (Mv_faust.Mesh.properties ~flows) in
       Alcotest.(check bool) "all mesh properties hold" true (Flow.all_hold v))
    [ Mv_faust.Mesh.crossing_flows; all_crossing_flows ]

let test_mesh_shared_ok_without_crossing () =
  (* a single flow cannot create the cycle: even the shared-buffer
     design is deadlock-free *)
  let flows = [ Mv_faust.Mesh.{ node = (0, 0); dest = (1, 1) } ] in
  Alcotest.(check bool) "single flow safe" true
    (Mv_faust.Mesh.deadlock_witness Mv_faust.Mesh.Shared_buffer ~flows = None)

let test_mesh_xy_routes_correctly () =
  (* packets reach exactly their destination, for every flow pattern *)
  let spec = Mv_faust.Mesh.spec Mv_faust.Mesh.Port_buffered ~flows:all_crossing_flows in
  let lts = Mv_calc.State_space.lts spec in
  (* delivered labels are exactly the four expected ones *)
  let deliveries =
    List.filter (fun l -> String.length l > 0 && l.[0] = 'l' &&
                          String.length l > 3 && l.[3] = 'o')
      (Lts.occurring_labels lts)
  in
  Alcotest.(check (list string)) "exact deliveries"
    [ "l00o !0"; "l01o !2"; "l10o !1"; "l11o !3" ]
    (List.sort compare deliveries)

let suite =
  [
    Alcotest.test_case "router properties" `Quick test_router_properties;
    Alcotest.test_case "single packet delivery" `Quick
      test_single_packet_delivery;
    Alcotest.test_case "misrouting caught" `Quick test_misrouting_would_be_caught;
    Alcotest.test_case "router LTS shape" `Quick test_router_lts_shape;
    Alcotest.test_case "chain strategies agree" `Slow test_chain_strategies;
    Alcotest.test_case "hop latency uncontended" `Quick
      test_hop_latency_uncontended;
    Alcotest.test_case "hop latency under contention" `Quick
      test_hop_latency_contention;
    Alcotest.test_case "latency independent of think time" `Quick
      test_latency_independent_of_injection_when_free;
    Alcotest.test_case "mesh: shared buffer deadlocks" `Quick
      test_mesh_shared_buffer_deadlocks;
    Alcotest.test_case "mesh: port buffered verifies" `Quick
      test_mesh_port_buffered_verifies;
    Alcotest.test_case "mesh: single flow safe" `Quick
      test_mesh_shared_ok_without_crossing;
    Alcotest.test_case "mesh: XY delivers exactly" `Quick
      test_mesh_xy_routes_correctly;
  ]
