(* Tests for mv_fame: protocol step tables, MPI operation sequences,
   benchmark latency shapes, and the distributed protocol
   verification. *)

module Protocol = Mv_fame.Protocol
module Topology = Mv_fame.Topology
module Mpi = Mv_fame.Mpi
module Benchmark = Mv_fame.Benchmark
module Distributed = Mv_fame.Distributed
module Flow = Mv_core.Flow

let verify = Flow.Run.verify Flow.Config.default

let exclusive = function
  | Protocol.MI | Protocol.IM -> true
  | Protocol.II | Protocol.SI | Protocol.IS | Protocol.SS
  | Protocol.EI | Protocol.IE -> false

let test_protocol_writes_gain_exclusivity () =
  List.iter
    (fun variant ->
       List.iter
         (fun state ->
            List.iter
              (fun node ->
                 let next, messages =
                   Protocol.step variant state (Protocol.Write node)
                 in
                 Alcotest.(check bool)
                   (Printf.sprintf "%s: write from %s exclusive"
                      (Protocol.variant_name variant)
                      (Protocol.state_name state))
                   true (exclusive next);
                 Alcotest.(check bool) "messages nonneg" true (messages >= 0))
              [ 0; 1 ])
         Protocol.all_states)
    [ Protocol.Msi; Protocol.Mesi; Protocol.Msi_migratory ]

let test_protocol_hits_are_free () =
  List.iter
    (fun variant ->
       Alcotest.(check int)
         (Protocol.variant_name variant ^ ": read hit")
         0
         (snd (Protocol.step variant Protocol.SI (Protocol.Read 0)));
       Alcotest.(check int)
         (Protocol.variant_name variant ^ ": write hit in M")
         0
         (snd (Protocol.step variant Protocol.MI (Protocol.Write 0))))
    [ Protocol.Msi; Protocol.Mesi; Protocol.Msi_migratory ]

let test_protocol_variant_differences () =
  (* MESI: silent upgrade from Exclusive *)
  Alcotest.(check int) "MESI silent upgrade" 0
    (snd (Protocol.step Protocol.Mesi Protocol.EI (Protocol.Write 0)));
  Alcotest.(check bool) "MESI read miss gets E" true
    (fst (Protocol.step Protocol.Mesi Protocol.II (Protocol.Read 0)) = Protocol.EI);
  (* migratory: reading a remote-M line takes ownership *)
  Alcotest.(check bool) "migratory read migrates" true
    (fst (Protocol.step Protocol.Msi_migratory Protocol.IM (Protocol.Read 0))
     = Protocol.MI);
  (* plain MSI degrades to shared instead *)
  Alcotest.(check bool) "MSI read shares" true
    (fst (Protocol.step Protocol.Msi Protocol.IM (Protocol.Read 0)) = Protocol.SS)

let test_protocol_mirror_symmetry () =
  (* node-1 operations behave like mirrored node-0 operations *)
  List.iter
    (fun state ->
       let next0, m0 = Protocol.step Protocol.Msi state (Protocol.Write 0) in
       let mirror = function
         | Protocol.SI -> Protocol.IS | Protocol.IS -> Protocol.SI
         | Protocol.MI -> Protocol.IM | Protocol.IM -> Protocol.MI
         | Protocol.EI -> Protocol.IE | Protocol.IE -> Protocol.EI
         | (Protocol.II | Protocol.SS) as s -> s
       in
       let next1, m1 =
         Protocol.step Protocol.Msi (mirror state) (Protocol.Write 1)
       in
       Alcotest.(check bool) "mirrored state" true (next1 = mirror next0);
       Alcotest.(check int) "mirrored cost" m0 m1)
    Protocol.all_states

let test_protocol_messages_fold () =
  (* ping-pong write0/read1 alternation under MSI costs 3 messages per
     op in steady state *)
  let ops = [ Protocol.Write 0; Protocol.Read 1; Protocol.Write 0 ] in
  Alcotest.(check int) "fold from cold" (2 + 3 + 3)
    (Protocol.messages Protocol.Msi ops)

let test_mpi_sequences () =
  let eager_ops = Mpi.ops_per_round Mpi.Eager ~size:4 in
  let rdv_ops = Mpi.ops_per_round Mpi.Rendezvous ~size:4 in
  (* eager: flag write + flag read per direction *)
  Alcotest.(check int) "eager flag ops" 4 (List.length eager_ops);
  (* rendezvous adds a 4-op handshake per direction *)
  Alcotest.(check int) "rendezvous flag ops" 12 (List.length rdv_ops);
  Alcotest.(check int) "eager copies" 8 (Mpi.copies_per_round Mpi.Eager ~size:4);
  Alcotest.(check int) "rendezvous copies" 0
    (Mpi.copies_per_round Mpi.Rendezvous ~size:4);
  Alcotest.(check int) "payload xfers" (4 * 8)
    (Mpi.payload_xfers_per_round Mpi.Eager ~size:4)

let test_topology_metadata () =
  Alcotest.(check int) "ring hops" 2 (Topology.hops Topology.Ring);
  Alcotest.(check bool) "bus contended" true (Topology.contended Topology.Bus);
  Alcotest.(check bool) "crossbar uncontended" false
    (Topology.contended Topology.Crossbar)

let rates = Benchmark.default_rates

let test_latency_topology_order () =
  let latency topo =
    Benchmark.round_latency Protocol.Msi topo Mpi.Eager ~size:2 ~rates
  in
  let crossbar = latency Topology.Crossbar in
  let bus = latency Topology.Bus in
  let ring = latency Topology.Ring in
  Alcotest.(check bool)
    (Printf.sprintf "crossbar (%.4f) < bus (%.4f)" crossbar bus)
    true (crossbar < bus);
  Alcotest.(check bool)
    (Printf.sprintf "bus (%.4f) < ring (%.4f)" bus ring)
    true (bus < ring)

let test_latency_size_monotone () =
  let latency size =
    Benchmark.round_latency Protocol.Msi Topology.Bus Mpi.Eager ~size ~rates
  in
  Alcotest.(check bool) "monotone in size" true (latency 1 < latency 4);
  Alcotest.(check bool) "monotone in size (2)" true (latency 4 < latency 8)

let test_eager_rendezvous_crossover () =
  let eager size =
    Benchmark.round_latency Protocol.Msi Topology.Bus Mpi.Eager ~size ~rates
  in
  let rdv size =
    Benchmark.round_latency Protocol.Msi Topology.Bus Mpi.Rendezvous ~size ~rates
  in
  Alcotest.(check bool) "eager wins small messages" true (eager 1 < rdv 1);
  Alcotest.(check bool) "rendezvous wins large messages" true (rdv 16 < eager 16)

let test_migratory_wins_pingpong () =
  let latency variant =
    Benchmark.round_latency variant Topology.Bus Mpi.Eager ~size:1 ~rates
  in
  Alcotest.(check bool) "migratory beats MSI on ping-pong" true
    (latency Protocol.Msi_migratory < latency Protocol.Msi)

let test_crossbar_matches_serial_bound () =
  (* no contention and serial operation: the pipeline must agree with
     the hand-computed serial time (up to the copy/coherence overlap
     at transfer boundaries) *)
  let measured =
    Benchmark.round_latency Protocol.Msi Topology.Crossbar Mpi.Rendezvous
      ~size:2 ~rates
  in
  let bound =
    Benchmark.latency_lower_bound Protocol.Msi Topology.Crossbar Mpi.Rendezvous
      ~size:2 ~rates
  in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.5f ~ bound %.5f" measured bound)
    true
    (abs_float (measured -. bound) /. bound < 0.02)

let test_barrier_latency () =
  let latency topo =
    Benchmark.barrier_latency Protocol.Msi topo ~rates
  in
  let crossbar = latency Topology.Crossbar in
  let bus = latency Topology.Bus in
  let ring = latency Topology.Ring in
  Alcotest.(check bool) "crossbar fastest" true (crossbar < bus);
  Alcotest.(check bool) "ring slowest" true (bus < ring);
  (* barrier episodes are much shorter than data ping-pong rounds *)
  let pingpong =
    Benchmark.round_latency Protocol.Msi Topology.Bus Mpi.Eager ~size:4 ~rates
  in
  Alcotest.(check bool) "barrier cheaper than size-4 ping-pong" true
    (bus < pingpong)

(* ---- N-node NUMA ---- *)

let test_numa_step_invariants () =
  (* from any reachable state, after a write node i is the only holder *)
  let nodes = 4 in
  let ops =
    List.concat_map
      (fun i -> [ Protocol.Read i; Protocol.Write i ])
      (List.init nodes Fun.id)
  in
  let seen = Hashtbl.create 64 in
  let rec explore state =
    if not (Hashtbl.mem seen state) then begin
      Hashtbl.replace seen state ();
      List.iter
        (fun op ->
           let next, messages = Mv_fame.Numa.step ~nodes state op in
           (match op with
            | Protocol.Write i ->
              Alcotest.(check bool) "writer owns" true
                (next.Mv_fame.Numa.owner = Some i);
              Alcotest.(check int) "writer sole sharer" (1 lsl i)
                next.Mv_fame.Numa.sharers
            | Protocol.Read i ->
              Alcotest.(check bool) "reader shares" true
                (next.Mv_fame.Numa.owner = Some i
                 || next.Mv_fame.Numa.sharers land (1 lsl i) <> 0));
           List.iter
             (fun (src, dst) ->
                Alcotest.(check bool) "endpoints valid" true
                  (src >= 0 && src < nodes && dst >= 0 && dst < nodes))
             messages;
           explore next)
        ops
    end
  in
  explore Mv_fame.Numa.initial_state;
  Alcotest.(check bool) "state space small" true (Hashtbl.length seen <= 40)

let test_numa_hits_free () =
  let nodes = 4 in
  let after_w2, _ =
    Mv_fame.Numa.step ~nodes Mv_fame.Numa.initial_state (Protocol.Write 2)
  in
  let _, msgs = Mv_fame.Numa.step ~nodes after_w2 (Protocol.Write 2) in
  Alcotest.(check int) "write hit free" 0 (List.length msgs);
  let _, msgs = Mv_fame.Numa.step ~nodes after_w2 (Protocol.Read 2) in
  Alcotest.(check int) "read hit free" 0 (List.length msgs)

let test_numa_hops () =
  Alcotest.(check int) "local" 0
    (Mv_fame.Numa.hops ~nodes:4 Topology.Ring ~src:2 ~dst:2);
  Alcotest.(check int) "ring wraps" 1
    (Mv_fame.Numa.hops ~nodes:4 Topology.Ring ~src:3 ~dst:0);
  Alcotest.(check int) "ring far" 2
    (Mv_fame.Numa.hops ~nodes:4 Topology.Ring ~src:0 ~dst:2);
  Alcotest.(check int) "bus flat" 1
    (Mv_fame.Numa.hops ~nodes:4 Topology.Bus ~src:0 ~dst:3)

let test_numa_latency_shapes () =
  let latency topo bench = Mv_fame.Numa.latency ~nodes:4 topo bench ~rates in
  (* ring ping-pong cost grows with distance; crossbar is flat *)
  let ring1 = latency Topology.Ring (Mv_fame.Numa.Pair_pingpong 1) in
  let ring2 = latency Topology.Ring (Mv_fame.Numa.Pair_pingpong 2) in
  Alcotest.(check bool)
    (Printf.sprintf "ring distance matters (%.4f < %.4f)" ring1 ring2)
    true (ring1 < ring2);
  let xbar1 = latency Topology.Crossbar (Mv_fame.Numa.Pair_pingpong 1) in
  let xbar2 = latency Topology.Crossbar (Mv_fame.Numa.Pair_pingpong 2) in
  Alcotest.(check bool) "crossbar distance-free" true
    (abs_float (xbar1 -. xbar2) < 1e-9);
  (* token ring circulation: crossbar < bus < ring *)
  let tr topo = latency topo Mv_fame.Numa.Token_ring in
  Alcotest.(check bool) "crossbar < bus" true
    (tr Topology.Crossbar < tr Topology.Bus);
  Alcotest.(check bool) "bus < ring" true (tr Topology.Bus < tr Topology.Ring)

let test_numa_node_sweep () =
  let token nodes =
    Mv_fame.Numa.latency ~nodes Topology.Ring Mv_fame.Numa.Token_ring ~rates
  in
  Alcotest.(check bool) "more nodes, longer circulation" true
    (token 2 < token 3 && token 3 < token 4)

(* ---- MPI programs (concurrent ranks) ---- *)

module Prog = Mv_fame.Mpi_program

let test_program_barrier_analytic () =
  (* one iteration = barrier-synchronized work: the cycle time is the
     expected maximum of R iid exponentials = mean * H_R *)
  let mean = 0.1 in
  List.iter
    (fun ranks ->
       let latency =
         Prog.iteration_latency
           ~programs:(Prog.work_barrier ~ranks ~work_mean:mean)
           Topology.Crossbar ~rates
       in
       let harmonic =
         List.fold_left ( +. ) 0.0
           (List.init ranks (fun i -> 1.0 /. float_of_int (i + 1)))
       in
       Alcotest.(check bool)
         (Printf.sprintf "%d ranks: %.5f vs %.5f" ranks latency (mean *. harmonic))
         true
         (abs_float (latency -. (mean *. harmonic)) < 1e-6))
    [ 2; 3 ]

let test_program_overlap_widens_crossbar_gap () =
  let gap programs =
    Prog.iteration_latency ~programs Topology.Bus ~rates
    /. Prog.iteration_latency ~programs Topology.Crossbar ~rates
  in
  let serial_gap = gap (Prog.pingpong ~partner:1 ~size:2) in
  let overlap_gap = gap (Prog.simultaneous_ring ~ranks:3 ~size:2) in
  Alcotest.(check bool)
    (Printf.sprintf "overlap widens the gap (%.2fx -> %.2fx)" serial_gap
       overlap_gap)
    true (overlap_gap > serial_gap)

let test_program_loops () =
  (* k messages per iteration scale the cycle time k-fold *)
  let latency k =
    Prog.iteration_latency
      ~programs:
        [ [ Prog.Loop (k, [ Prog.Send { dst = 1; size = 1 } ]) ];
          [ Prog.Loop (k, [ Prog.Recv { src = 0; size = 1 } ]) ] ]
      Topology.Bus ~rates
  in
  Alcotest.(check bool) "3 sends cost three times one send" true
    (abs_float ((latency 3 /. latency 1) -. 3.0) < 0.2)

let test_program_validation () =
  List.iter
    (fun programs ->
       try
         ignore (Prog.spec ~programs Topology.Bus ~rates);
         Alcotest.fail "expected Invalid_argument"
       with Invalid_argument _ -> ())
    [
      [ [ Prog.Send { dst = 0; size = 1 } ]; [] ] (* self-send *);
      [ [ Prog.Send { dst = 7; size = 1 } ]; [] ] (* bad rank *);
      [ [ Prog.Work (-1.0) ]; [] ] (* bad work *);
      [ [] ] (* one rank *);
    ]

let test_distributed_correct () =
  let v = verify (Distributed.spec Distributed.Correct) Distributed.properties in
  Alcotest.(check bool) "all properties hold" true (Flow.all_hold v)

let test_grant_before_ack_caught () =
  let v =
    verify (Distributed.spec Distributed.Grant_before_ack)
      [ Distributed.coherence ]
  in
  Alcotest.(check bool) "race caught" false (Flow.all_hold v);
  (* and the checker produces a readable witness ending in the error *)
  match Flow.action_witness v ~gate:"error" with
  | None -> Alcotest.fail "expected a witness"
  | Some t ->
    let labels = t.Mv_lts.Trace.labels in
    Alcotest.(check bool) "ends in error" true
      (List.nth labels (List.length labels - 1) = "error");
    Alcotest.(check bool) "the grant precedes the ack in the witness" true
      (List.exists (fun l -> Mv_lts.Label.gate l = "grant1"
                          || Mv_lts.Label.gate l = "grant0") labels)

let test_distributed_bug_caught () =
  let v =
    verify (Distributed.spec Distributed.Dropped_invalidation)
      [ Distributed.coherence ]
  in
  Alcotest.(check bool) "coherence violated" false (Flow.all_hold v)

let suite =
  [
    Alcotest.test_case "writes gain exclusivity" `Quick
      test_protocol_writes_gain_exclusivity;
    Alcotest.test_case "hits are free" `Quick test_protocol_hits_are_free;
    Alcotest.test_case "variant differences" `Quick
      test_protocol_variant_differences;
    Alcotest.test_case "mirror symmetry" `Quick test_protocol_mirror_symmetry;
    Alcotest.test_case "messages fold" `Quick test_protocol_messages_fold;
    Alcotest.test_case "mpi sequences" `Quick test_mpi_sequences;
    Alcotest.test_case "topology metadata" `Quick test_topology_metadata;
    Alcotest.test_case "latency: topology order" `Quick
      test_latency_topology_order;
    Alcotest.test_case "latency: size monotone" `Quick test_latency_size_monotone;
    Alcotest.test_case "eager/rendezvous crossover" `Quick
      test_eager_rendezvous_crossover;
    Alcotest.test_case "migratory wins ping-pong" `Quick
      test_migratory_wins_pingpong;
    Alcotest.test_case "crossbar matches serial bound" `Quick
      test_crossbar_matches_serial_bound;
    Alcotest.test_case "barrier latency" `Quick test_barrier_latency;
    Alcotest.test_case "numa: protocol invariants" `Quick
      test_numa_step_invariants;
    Alcotest.test_case "numa: hits are free" `Quick test_numa_hits_free;
    Alcotest.test_case "numa: hop metric" `Quick test_numa_hops;
    Alcotest.test_case "numa: latency shapes" `Quick test_numa_latency_shapes;
    Alcotest.test_case "numa: node sweep" `Quick test_numa_node_sweep;
    Alcotest.test_case "mpi programs: barrier = max of exponentials" `Quick
      test_program_barrier_analytic;
    Alcotest.test_case "mpi programs: overlap widens crossbar gap" `Quick
      test_program_overlap_widens_crossbar_gap;
    Alcotest.test_case "mpi programs: loops" `Quick test_program_loops;
    Alcotest.test_case "mpi programs: validation" `Quick
      test_program_validation;
    Alcotest.test_case "distributed protocol verified" `Quick
      test_distributed_correct;
    Alcotest.test_case "distributed bug caught" `Quick test_distributed_bug_caught;
    Alcotest.test_case "grant-before-ack race caught" `Quick
      test_grant_before_ack_caught;
  ]
