(* Experiment harness: regenerates every quantitative and qualitative
   claim of the paper's evaluation (the paper is a 2-page overview with
   no numbered tables; the experiment ids E1-E7 are defined in
   DESIGN.md and EXPERIMENTS.md). Running this executable prints one
   table per experiment, then times the computational kernels with
   Bechamel. Passing experiment names as arguments (e.g. "E2 bench")
   restricts the run. *)

module Report = Mv_core.Report
module Flow = Mv_core.Flow
module Obs = Mv_obs.Obs
module Json = Mv_obs.Json
module Ctmc = Mv_markov.Ctmc
module Imc = Mv_imc.Imc
module To_ctmc = Mv_imc.To_ctmc
module Phase = Mv_imc.Phase
module Label = Mv_lts.Label
module Lts = Mv_lts.Lts
module Net = Mv_compose.Net
module Mvb = Mv_store.Mvb

let f = Report.float_cell
let pc = Report.percent_cell

(* The default flow configuration, keeping [gates] visible. *)
let keep gates = Flow.Config.(default |> with_keep gates)

(* ------------------------------------------------------------------ *)
(* E1: FAME2 - MPI ping-pong latency prediction                        *)

let e1_rates = Mv_fame.Benchmark.default_rates

let e1_fame_mpi () =
  let rows = ref [] in
  List.iter
    (fun topology ->
       List.iter
         (fun implementation ->
            List.iter
              (fun size ->
                 let latency =
                   Mv_fame.Benchmark.round_latency Mv_fame.Protocol.Msi topology
                     implementation ~size ~rates:e1_rates
                 in
                 let serial =
                   Mv_fame.Benchmark.latency_lower_bound Mv_fame.Protocol.Msi
                     topology implementation ~size ~rates:e1_rates
                 in
                 rows :=
                   [ Mv_fame.Topology.name topology;
                     Mv_fame.Mpi.name implementation;
                     string_of_int size; f latency; f serial ]
                   :: !rows)
              [ 1; 4; 16 ])
         Mv_fame.Mpi.all)
    Mv_fame.Topology.all;
  Report.table
    ~title:
      "E1a  MPI ping-pong round latency: topologies x MPI implementation x \
       message size (protocol MSI)"
    ~header:[ "topology"; "mpi"; "size"; "latency"; "serial est." ]
    (List.rev !rows);
  let rows =
    List.map
      (fun variant ->
         let latency size =
           Mv_fame.Benchmark.round_latency variant Mv_fame.Topology.Bus
             Mv_fame.Mpi.Eager ~size ~rates:e1_rates
         in
         let ops = Mv_fame.Mpi.ops_per_round Mv_fame.Mpi.Eager ~size:1 in
         [ Mv_fame.Protocol.variant_name variant;
           string_of_int (Mv_fame.Protocol.messages variant (ops @ ops));
           f (latency 1); f (latency 4) ])
      [ Mv_fame.Protocol.Msi; Mv_fame.Protocol.Mesi;
        Mv_fame.Protocol.Msi_migratory ]
  in
  Report.table
    ~title:
      "E1b  MPI ping-pong latency: cache coherency protocols (bus, eager; \
       msgs = flag-op messages of two cold rounds)"
    ~header:[ "protocol"; "msgs"; "latency s=1"; "latency s=4" ]
    rows;
  let rows =
    List.map
      (fun topology ->
         [ Mv_fame.Topology.name topology;
           f (Mv_fame.Benchmark.barrier_latency Mv_fame.Protocol.Msi topology
                ~rates:e1_rates) ])
      Mv_fame.Topology.all
  in
  Report.table
    ~title:"E1c  MPI barrier episode latency (MSI): topologies"
    ~header:[ "topology"; "latency" ]
    rows;
  let rows =
    List.concat_map
      (fun topology ->
         List.map
           (fun benchmark ->
              [ Mv_fame.Topology.name topology;
                Mv_fame.Numa.benchmark_name benchmark;
                f
                  (Mv_fame.Numa.latency ~nodes:4 topology benchmark
                     ~rates:e1_rates) ])
           [ Mv_fame.Numa.Pair_pingpong 1; Mv_fame.Numa.Pair_pingpong 2;
             Mv_fame.Numa.Token_ring ])
      Mv_fame.Topology.all
  in
  Report.table
    ~title:
      "E1d  4-node NUMA (message endpoints + per-pair distance): ring \
       ping-pong cost grows with partner distance, crossbar stays flat"
    ~header:[ "topology"; "benchmark"; "latency" ]
    rows;
  let program_latency programs topology =
    Mv_fame.Mpi_program.iteration_latency ~programs topology ~rates:e1_rates
  in
  let rows =
    List.concat_map
      (fun (name, programs) ->
         List.map
           (fun topology ->
              [ name;
                Mv_fame.Topology.name topology;
                f (program_latency programs topology) ])
           [ Mv_fame.Topology.Bus; Mv_fame.Topology.Crossbar ])
      [
        ("ping-pong (serial)", Mv_fame.Mpi_program.pingpong ~partner:1 ~size:2);
        ("simultaneous ring (overlap)",
         Mv_fame.Mpi_program.simultaneous_ring ~ranks:3 ~size:2);
        ("work + barrier (BSP)",
         Mv_fame.Mpi_program.work_barrier ~ranks:3 ~work_mean:0.1);
      ]
  in
  Report.table
    ~title:
      "E1e  Concurrent MPI rank programs: overlapping communication widens \
       the crossbar advantage (serial ping-pong vs simultaneous sends)"
    ~header:[ "benchmark"; "topology"; "latency/iteration" ]
    rows

(* ------------------------------------------------------------------ *)
(* E2: xSTream - queue throughput, latency, occupancy                  *)

let e2_arrival = 2.0
let e2_service = 3.0

let e2_xstream () =
  let rows =
    List.map
      (fun capacity ->
         let spec =
           Mv_xstream.Queues.single ~arrival:e2_arrival ~service:e2_service
             ~capacity
         in
         let s = Mv_xstream.Measures.summary spec ~capacity in
         let k = Mv_xstream.Queues.system_capacity ~capacity in
         let analytic =
           Mv_xstream.Analytic.throughput ~arrival:e2_arrival ~service:e2_service
             ~k
         in
         [ string_of_int capacity;
           f s.Mv_xstream.Measures.throughput;
           f analytic;
           f s.Mv_xstream.Measures.mean_occupancy;
           f s.Mv_xstream.Measures.mean_latency;
           pc s.Mv_xstream.Measures.blocking ])
      [ 2; 4; 8; 16 ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "E2a  xSTream single queue (arrival %.1f, service %.1f): capacity \
          sweep; 'analytic' is the M/M/1/K closed form the pipeline must match"
         e2_arrival e2_service)
    ~header:
      [ "capacity"; "throughput"; "analytic"; "mean occ"; "latency"; "P(full)" ]
    rows;
  (* occupancy distribution of one configuration: the 'occupancy within
     xSTream queues' series *)
  let capacity = 8 in
  let spec =
    Mv_xstream.Queues.single ~arrival:e2_arrival ~service:e2_service ~capacity
  in
  let dist = Mv_xstream.Measures.occupancy_distribution spec ~capacity in
  Report.table
    ~title:"E2b  xSTream queue occupancy distribution (capacity 8)"
    ~header:[ "occupancy"; "probability" ]
    (List.init (capacity + 1) (fun n -> [ string_of_int n; f dist.(n) ]));
  (* load sweep at fixed capacity *)
  let capacity = 4 in
  let rows =
    List.map
      (fun arrival ->
         let spec =
           Mv_xstream.Queues.single ~arrival ~service:e2_service ~capacity
         in
         let s = Mv_xstream.Measures.summary spec ~capacity in
         [ f (arrival /. e2_service);
           f s.Mv_xstream.Measures.throughput;
           f s.Mv_xstream.Measures.mean_occupancy;
           f s.Mv_xstream.Measures.mean_latency ])
      [ 0.9; 1.8; 2.7; 3.6; 4.5 ]
  in
  Report.table
    ~title:"E2c  xSTream single queue (capacity 4): load sweep"
    ~header:[ "rho"; "throughput"; "mean occ"; "latency" ]
    rows;
  (* tandem with a transfer stage, plus simulation cross-check *)
  let spec =
    Mv_xstream.Queues.tandem ~arrival:e2_arrival ~transfer:4.0
      ~service:e2_service ~capacity1:3 ~capacity2:3
  in
  let perf = Flow.Run.performance (keep [ "pop" ]) spec in
  let numeric = Flow.throughput perf ~gate:"pop" in
  let simulated =
    Mv_sim.Des.throughput perf.Flow.imc ~action:"pop" ~horizon:20_000.0
      ~seed:11L
  in
  Report.table
    ~title:"E2d  xSTream tandem (3+3 places, transfer rate 4.0): solver vs DES"
    ~header:[ "measure"; "numerical"; "simulated" ]
    [ [ "end-to-end throughput"; f numeric; f simulated ] ];
  (* memory-backed queue: the spill/refill path throttles the stream *)
  let rows =
    List.map
      (fun refill ->
         let s =
           Mv_xstream.Measures.spill_summary
             (Mv_xstream.Queues.spill ~arrival:e2_arrival ~service:e2_service
                ~refill ~hw_capacity:2 ~spill_capacity:4)
         in
         [ f refill;
           f s.Mv_xstream.Measures.spill_throughput;
           f s.Mv_xstream.Measures.mean_hw;
           f s.Mv_xstream.Measures.mean_spilled;
           pc s.Mv_xstream.Measures.spilling ])
      [ 0.5; 1.0; 2.0; 4.0; 16.0 ]
  in
  Report.table
    ~title:
      "E2e  xSTream memory-backed queue (HW 2 + spill 4): refill-rate sweep"
    ~header:[ "refill rate"; "throughput"; "mean HW"; "mean spilled"; "P(spilling)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E3: functional verification results                                 *)

let e3_verification () =
  let check name spec properties =
    let v = Flow.Run.verify Flow.Config.default spec properties in
    List.map
      (fun r ->
         [ name;
           string_of_int (Lts.nb_states v.Flow.lts);
           r.Flow.property_name;
           (if r.Flow.holds then "holds" else "VIOLATED") ])
      v.Flow.results
  in
  let equivalence name reference candidate =
    let ok =
      Mv_bisim.Branching.equivalent
        (Mv_calc.State_space.lts reference)
        (Mv_calc.State_space.lts candidate)
    in
    [ name;
      string_of_int (Lts.nb_states (Mv_calc.State_space.lts candidate));
      "branching equivalent to reference FIFO";
      (if ok then "holds" else "VIOLATED") ]
  in
  let rows =
    check "FAUST router (closed)"
      (Mv_faust.Router.closed_spec ~id:"r")
      (Mv_faust.Router.properties ~id:"r")
    @ [ (let spec = Mv_faust.Router.single_packet_spec ~id:"r" ~input:0 ~dest:1 in
         let name, formula = Mv_faust.Router.delivery_property ~id:"r" ~dest:1 in
         let v =
           Flow.Run.verify Flow.Config.default spec [ (name, formula) ]
         in
         match v.Flow.results with
         | [ r ] ->
           [ "FAUST router (1 packet)";
             string_of_int (Lts.nb_states v.Flow.lts);
             r.Flow.property_name;
             (if r.Flow.holds then "holds" else "VIOLATED") ]
         | _ -> assert false) ]
    @ [ equivalence "xSTream FIFO (reference)" (Mv_xstream.Queues.fifo_data ())
          (Mv_xstream.Queues.fifo_data ());
        equivalence "xSTream FIFO issue 1: drops when full"
          (Mv_xstream.Queues.fifo_data ())
          (Mv_xstream.Queues.fifo_lossy ());
        equivalence "xSTream FIFO issue 2: reorders"
          (Mv_xstream.Queues.fifo_data ())
          (Mv_xstream.Queues.fifo_unordered ()) ]
    @ [ (let flows = Mv_faust.Mesh.crossing_flows in
         match
           Mv_faust.Mesh.deadlock_witness Mv_faust.Mesh.Shared_buffer ~flows
         with
         | Some t ->
           [ "FAUST 2x2 mesh (shared-buffer routers)";
             "16";
             Printf.sprintf "deadlock freedom (witness: %s)"
               (Mv_lts.Trace.to_string t);
             "VIOLATED" ]
         | None ->
           [ "FAUST 2x2 mesh (shared-buffer routers)"; "16";
             "deadlock freedom"; "holds" ]) ]
    @ (let flows = Mv_faust.Mesh.crossing_flows in
       let spec = Mv_faust.Mesh.spec Mv_faust.Mesh.Port_buffered ~flows in
       check "FAUST 2x2 mesh (port-buffered routers)" spec
         (Mv_faust.Mesh.properties ~flows))
    @ check "FAME2 MSI directory (correct)"
        (Mv_fame.Distributed.spec Mv_fame.Distributed.Correct)
        Mv_fame.Distributed.properties
    @ check "FAME2 MSI directory (dropped inv)"
        (Mv_fame.Distributed.spec Mv_fame.Distributed.Dropped_invalidation)
        [ Mv_fame.Distributed.coherence ]
    @ check "FAME2 MSI directory (grant-before-ack race)"
        (Mv_fame.Distributed.spec Mv_fame.Distributed.Grant_before_ack)
        [ Mv_fame.Distributed.coherence ]
  in
  Report.table
    ~title:
      "E3  Functional verification: FAUST router, xSTream queue issues, FAME2 \
       coherence"
    ~header:[ "model"; "states"; "property"; "result" ]
    rows

(* ------------------------------------------------------------------ *)
(* E4: fixed-delay approximation (space-accuracy tradeoff)             *)

let e4_erlang () =
  let delay = 1.0 in
  let rows =
    List.map
      (fun phases ->
         let dist = Phase.erlang_of_deterministic ~phases ~delay in
         let imc = Phase.absorbing_imc dist in
         let conv = To_ctmc.convert (Imc.hide_all imc) in
         let ctmc = conv.To_ctmc.ctmc in
         let targets = Ctmc.absorbing_states ctmc in
         let mean, _ = Ctmc.mean_first_passage ctmc ~targets in
         let p_by t = Ctmc.reach_probability_by ctmc ~targets ~horizon:t in
         [ string_of_int phases;
           string_of_int (Imc.nb_states imc);
           f (Phase.coefficient_of_variation dist);
           f mean;
           f (p_by (0.8 *. delay));
           f (p_by delay);
           f (p_by (1.2 *. delay)) ])
      [ 1; 2; 4; 8; 16; 32; 64 ]
  in
  Report.table
    ~title:
      "E4  Fixed delay (d=1) as Erlang-k: state count vs accuracy (ideal: \
       CV 0, P(T<=0.8d) 0, P(T<=1.2d) 1)"
    ~header:
      [ "k"; "states"; "CV"; "mean"; "P(T<=0.8d)"; "P(T<=d)"; "P(T<=1.2d)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E5: nondeterminism in the Markov solvers                            *)

(* A contended resource: jobs arrive at rate lambda; a nondeterministic
   dispatcher hands each job to a fast or a slow server. CADP's solvers
   reject this IMC; the schedulers below handle it. *)
let e5_model () =
  let labels = Label.create () in
  let fast = Label.intern labels "fast" and slow = Label.intern labels "slow" in
  Imc.make ~nb_states:4 ~initial:0 ~labels
    ~interactive:[ (1, fast, 2); (1, slow, 3) ]
    ~markovian:[ (0, 2.0, 1); (2, 6.0, 0); (3, 1.5, 0) ]

let e5_nondet () =
  let imc = e5_model () in
  let metric conv =
    let pi = Ctmc.steady_state conv.To_ctmc.ctmc in
    let t = Ctmc.throughputs conv.To_ctmc.ctmc ~pi in
    List.fold_left (fun acc (_, v) -> acc +. v) 0.0 t
  in
  let fail_status =
    match To_ctmc.convert ~scheduler:To_ctmc.Fail imc with
    | _ -> "accepted"
    | exception To_ctmc.Nondeterministic s ->
      Printf.sprintf "rejected (state %d)" s
  in
  let uniform = metric (To_ctmc.convert ~scheduler:To_ctmc.Uniform imc) in
  let lo, hi = Option.get (To_ctmc.bounds imc ~metric ~limit:1024) in
  Report.table
    ~title:
      "E5  Nondeterministic IMC (dispatcher to fast/slow server): CADP-style \
       rejection vs scheduler-based analyses (completed-jobs throughput)"
    ~header:[ "analysis"; "result" ]
    [
      [ "CADP-style solver (Fail)"; fail_status ];
      [ "uniform scheduler"; f uniform ];
      [ "min over deterministic schedulers"; f lo ];
      [ "max over deterministic schedulers"; f hi ];
      [ "nondeterministic states";
        string_of_int (List.length (To_ctmc.nondeterministic_states imc)) ];
    ]

let e5_mvl_model () =
  Mv_calc.Parser.spec_of_string_checked
    {|
process Source := rate 2.0 ; submit ; Source
process Dispatcher := submit ; (i ; tofast ; Dispatcher [] i ; toslow ; Dispatcher)
process Fast := tofast ; rate 6.0 ; served ; Fast
process Slow := toslow ; rate 1.5 ; served ; Slow
init ((Source |[submit]| Dispatcher) |[tofast]| Fast) |[toslow]| Slow
|}

let e5_nondet_mvl () =
  let lts = Mv_calc.State_space.lts (e5_mvl_model ()) in
  let imc =
    Mv_imc.Lump.minimize
      (Imc.maximal_progress
         (Imc.hide (Imc.of_lts lts) ~gates:[ "submit"; "tofast"; "toslow" ]))
  in
  let metric conv =
    let pi = Ctmc.steady_state conv.To_ctmc.ctmc in
    Ctmc.throughput conv.To_ctmc.ctmc ~pi ~action:"served"
  in
  let fail_status =
    match To_ctmc.convert ~scheduler:To_ctmc.Fail imc with
    | _ -> "accepted"
    | exception To_ctmc.Nondeterministic _ -> "rejected (nondeterministic)"
  in
  let uniform = metric (To_ctmc.convert ~scheduler:To_ctmc.Uniform imc) in
  let lo, hi = To_ctmc.local_bounds imc ~metric in
  Report.table
    ~title:
      "E5b  The same question through the full MVL flow (dispatcher modeled \
       in the calculus; the dispatcher commits internally before seeing \
       the servers)"
    ~header:[ "analysis"; "served-throughput" ]
    [
      [ "CADP-style solver (Fail)"; fail_status ];
      [ "uniform scheduler"; f uniform ];
      [ "min over schedulers (greedy policy search)"; f lo ];
      [ "max over schedulers (greedy policy search)"; f hi ];
      [ "nondeterministic states";
        string_of_int (List.length (To_ctmc.nondeterministic_states imc)) ];
    ]

(* ------------------------------------------------------------------ *)
(* E6: compositional verification vs monolithic generation             *)

let buffer_chain_node length =
  let lts_of text =
    Mv_calc.State_space.lts (Mv_calc.Parser.spec_of_string_checked text)
  in
  let buffer k =
    let input = Printf.sprintf "g%d" k
    and output = Printf.sprintf "g%d" (k + 1) in
    Net.Leaf
      ( Printf.sprintf "buf%d" k,
        lts_of
          (Printf.sprintf
             "process B (n : int[0..2]) := [n < 2] -> %s ; B(n + 1) [] [n > 0] \
              -> %s ; B(n - 1)\ninit B(0)"
             input output) )
  in
  let rec build acc k =
    if k >= length then acc
    else
      let gate = Printf.sprintf "g%d" k in
      build (Net.Hide ([ gate ], Net.Par ([ gate ], acc, buffer k))) (k + 1)
  in
  build (buffer 0) 1

let e6_compositional () =
  let evaluate node =
    let mono = Net.evaluate ~strategy:`Monolithic node in
    let comp = Net.evaluate ~strategy:`Compositional node in
    (mono, comp)
  in
  let row name (mono, comp) =
    [ name;
      string_of_int mono.Net.peak_states;
      string_of_int comp.Net.peak_states;
      string_of_int (Lts.nb_states comp.Net.result);
      Printf.sprintf "%.1fx"
        (float_of_int mono.Net.peak_states /. float_of_int comp.Net.peak_states)
    ]
  in
  let rows =
    List.map
      (fun length ->
         row
           (Printf.sprintf "buffer chain x%d" length)
           (evaluate (buffer_chain_node length)))
      [ 2; 3; 4; 5; 6 ]
    @ List.map
        (fun length ->
           row
             (Printf.sprintf "FAUST router chain x%d" length)
             (evaluate (Mv_faust.Noc.chain ~length)))
        [ 2; 3 ]
  in
  Report.table
    ~title:
      "E6  State-space explosion: monolithic peak vs compositional \
       (minimize-then-compose) peak"
    ~header:[ "system"; "mono peak"; "comp peak"; "final"; "saving" ]
    rows

(* ------------------------------------------------------------------ *)
(* E7: generation alternated with minimization                         *)

let e7_minimization () =
  let measure name lts =
    let strong = Mv_bisim.Strong.minimize lts in
    let branching = Mv_bisim.Branching.minimize lts in
    [ name;
      string_of_int (Lts.nb_states lts);
      string_of_int (Lts.nb_states strong);
      string_of_int (Lts.nb_states branching) ]
  in
  let router = Mv_faust.Router.lts ~id:"r" in
  let queue_spec =
    Mv_xstream.Queues.single ~arrival:2.0 ~service:3.0 ~capacity:8
  in
  let queue_lts =
    Lts.hide (Mv_calc.State_space.lts queue_spec) ~gates:[ "push" ]
  in
  let coherence =
    Lts.hide_all_except
      (Mv_calc.State_space.lts
         (Mv_fame.Distributed.spec Mv_fame.Distributed.Correct))
      ~gates:[ "read0"; "write0"; "read1"; "write1"; "error" ]
  in
  let rows =
    [ measure "FAUST router (rq hidden)" router;
      measure "xSTream queue (push hidden)" queue_lts;
      measure "FAME2 coherence (protocol hidden)" coherence ]
  in
  Report.table
    ~title:"E7a  Minimization: states before / strong / branching"
    ~header:[ "model"; "original"; "strong"; "branching" ]
    rows;
  (* stochastic lumping inside the performance flow *)
  let rows =
    List.map
      (fun capacity ->
         let spec =
           Mv_xstream.Queues.single ~arrival:2.0 ~service:3.0 ~capacity
         in
         let perf = Flow.Run.performance (keep [ "pop" ]) spec in
         [ Printf.sprintf "queue capacity %d" capacity;
           string_of_int (Imc.nb_states perf.Flow.imc);
           string_of_int (Imc.nb_states perf.Flow.lumped);
           string_of_int (Ctmc.nb_states perf.Flow.conversion.To_ctmc.ctmc) ])
      [ 4; 8; 16 ]
    @ [ (let perf =
           Flow.Run.performance (keep [ "done" ])
             (Mv_xstream.Queues.dual_server ~arrival:3.0 ~service:2.0)
         in
         [ "2 identical engines (symmetry)";
           string_of_int (Imc.nb_states perf.Flow.imc);
           string_of_int (Imc.nb_states perf.Flow.lumped);
           string_of_int (Ctmc.nb_states perf.Flow.conversion.To_ctmc.ctmc) ]) ]
  in
  Report.table
    ~title:"E7b  Stochastic lumping in the performance flow (IMC -> CTMC)"
    ~header:[ "model"; "IMC states"; "lumped"; "CTMC states" ]
    rows;
  (* compositional IMC construction (the paper's "alternates state
     space generation and stochastic state space minimization") *)
  let spec_of = Mv_calc.Parser.spec_of_string_checked in
  let engine k =
    Mv_imc.Network.of_spec
      (Printf.sprintf "engine%d" k)
      (spec_of "process E := grab ; rate 2.0 ; done ; E\ninit E")
  in
  let source =
    Mv_imc.Network.of_spec "source"
      (spec_of "process S := rate 6.0 ; grab ; S\ninit S")
  in
  let rows =
    List.map
      (fun engines ->
         let bank =
           Mv_imc.Network.par_list [] (List.init engines engine)
         in
         let node =
           Mv_imc.Network.Hide
             ([ "grab" ], Mv_imc.Network.Par ([ "grab" ], source, bank))
         in
         let mono = Mv_imc.Network.evaluate ~strategy:`Monolithic node in
         let comp = Mv_imc.Network.evaluate ~strategy:`Compositional node in
         [ Printf.sprintf "%d identical engines" engines;
           string_of_int mono.Mv_imc.Network.peak_states;
           string_of_int comp.Mv_imc.Network.peak_states;
           string_of_int (Imc.nb_states comp.Mv_imc.Network.result) ])
      [ 2; 3; 4; 5 ]
  in
  Report.table
    ~title:
      "E7c  Compositional IMC construction: peak states, monolithic vs \
       lump-as-you-go"
    ~header:[ "system"; "mono peak"; "comp peak"; "final (lumped)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E8: multicore scaling of the parallel engines                       *)

(* Wall-clock times for the pool-enabled phases at 1/2/4/8 domains:
   branching refinement and DES replications (generation, strong
   refinement and the steady-state solve are sequential, so the FAUST
   row's generate step is the same at every size and the tandem's IMC
   is built once, outside the timing). The outputs are identical
   whatever the pool size (that is the Mv_par contract, cross-checked
   in test/test_par.ml); this table only reports timing. On a
   single-core container the speedup column honestly hovers around
   1.0x (or below: domains add overhead without adding parallelism) —
   run on a multicore host to see the scaling. *)
let e8_scaling () =
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let with_domains domains f =
    if domains = 1 then f None
    else Mv_par.Pool.scope ~domains (fun pool -> f (Some pool))
  in
  let faust_spec =
    Mv_faust.Mesh.spec Mv_faust.Mesh.Port_buffered
      ~flows:Mv_faust.Mesh.crossing_flows
  in
  let queue_imc =
    Imc.of_lts
      (Flow.Run.generate Flow.Config.default
         (Mv_xstream.Queues.tandem ~arrival:e2_arrival ~transfer:4.0
            ~service:e2_service ~capacity1:4 ~capacity2:4))
  in
  let tasks =
    [ ("FAUST 2x2 mesh: generate + branching min.",
       fun pool () ->
         ignore (Mv_bisim.Branching.minimize ?pool
                   (Flow.Run.generate Flow.Config.default faust_spec)));
      ("xSTream tandem: DES throughput, 64 replications",
       fun pool () ->
         ignore
           (Mv_sim.Des.throughput_stats ?pool queue_imc ~action:"pop"
              ~horizon:1000.0 ~replications:64 ~seed:7L)) ]
  in
  let rows =
    List.map
      (fun (name, task) ->
         let timings =
           List.map
             (fun domains ->
                with_domains domains (fun pool -> time (task pool)))
             [ 1; 2; 4; 8 ]
         in
         match timings with
         | [ t1; t2; t4; t8 ] ->
           [ name; f t1; f t2; f t4; f t8;
             Printf.sprintf "%.2fx" (t1 /. t8) ]
         | _ -> assert false)
      tasks
  in
  Report.table
    ~title:
      (Printf.sprintf
         "E8  Multicore scaling (wall-clock seconds; host reports %d \
          recommended domains)"
         (Mv_par.Pool.auto ()))
    ~header:[ "phase"; "-j 1"; "-j 2"; "-j 4"; "-j 8"; "speedup (j8/j1)" ]
    rows

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one kernel per experiment                *)

let bechamel_kernels () =
  let open Bechamel in
  let kernel name run = Test.make ~name (Staged.stage run) in
  let tests =
    Test.make_grouped ~name:"multival"
      [
        kernel "e1:fame-round-latency" (fun () ->
            Mv_fame.Benchmark.round_latency Mv_fame.Protocol.Msi
              Mv_fame.Topology.Bus Mv_fame.Mpi.Eager ~size:1 ~rates:e1_rates);
        kernel "e2:xstream-summary" (fun () ->
            Mv_xstream.Measures.summary
              (Mv_xstream.Queues.single ~arrival:2.0 ~service:3.0 ~capacity:4)
              ~capacity:4);
        kernel "e3:router-verification" (fun () ->
            Flow.Run.verify Flow.Config.default
              (Mv_faust.Router.closed_spec ~id:"b")
              (Mv_faust.Router.properties ~id:"b"));
        kernel "e4:erlang-32-passage" (fun () ->
            let dist = Phase.erlang_of_deterministic ~phases:32 ~delay:1.0 in
            let conv =
              To_ctmc.convert (Imc.hide_all (Phase.absorbing_imc dist))
            in
            let ctmc = conv.To_ctmc.ctmc in
            Ctmc.mean_first_passage ctmc ~targets:(Ctmc.absorbing_states ctmc));
        kernel "e5:scheduler-bounds" (fun () ->
            To_ctmc.bounds (e5_model ())
              ~metric:(fun conv ->
                  let pi = Ctmc.steady_state conv.To_ctmc.ctmc in
                  Ctmc.throughput conv.To_ctmc.ctmc ~pi ~action:"fast")
              ~limit:64);
        kernel "e6:compositional-chain" (fun () ->
            Net.evaluate ~strategy:`Compositional (buffer_chain_node 4));
        kernel "e7:branching-minimize" (fun () ->
            Mv_bisim.Branching.minimize (Mv_faust.Router.lts ~id:"b"));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
       let estimate =
         match Analyze.OLS.estimates ols_result with
         | Some (value :: _) -> Printf.sprintf "%.3f ms" (value /. 1e6)
         | Some [] | None -> "n/a"
       in
       rows := [ name; estimate ] :: !rows)
    results;
  Report.table ~title:"Kernel timings (Bechamel OLS estimate per run)"
    ~header:[ "kernel"; "time/run" ]
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* Per-experiment trajectory record, written to BENCH_multival.json
   so successive runs can be compared. States and solver iterations
   are counter deltas from Mv_obs around each experiment. *)

let bench_records : (string * float * int * int * float * int) list ref =
  ref []

(* Extra top-level JSON fields (e.g. the E10 engine comparison) merged
   into BENCH_multival.json next to the experiment rows. *)
let bench_extra : (string * Json.t) list ref = ref []

let timed name run () =
  let states = Obs.counter "explore.states" in
  let iterations = Obs.counter "solver.iterations" in
  let states0 = Obs.counter_value states in
  let iterations0 = Obs.counter_value iterations in
  let t0 = Unix.gettimeofday () in
  run ();
  let wall = Unix.gettimeofday () -. t0 in
  let states = Obs.counter_value states - states0 in
  let iterations = Obs.counter_value iterations - iterations0 in
  let throughput =
    if wall > 0.0 then float_of_int states /. wall else 0.0
  in
  bench_records :=
    (name, wall, states, iterations, throughput, Obs.maxrss_kb ())
    :: !bench_records

let write_bench_json path =
  let experiments =
    List.rev_map
      (fun (name, wall, states, iterations, throughput, maxrss) ->
         Json.Obj
           [ ("name", Json.String name);
             ("wall_s", Json.Float wall);
             ("states", Json.Int states);
             ("iterations", Json.Int iterations);
             ("throughput_states_per_s", Json.Float throughput);
             ("maxrss_kb", Json.Int maxrss) ])
      !bench_records
  in
  let json =
    Json.Obj
      (("schema", Json.String "mv-bench-v1")
       :: ("experiments", Json.List experiments)
       :: List.rev !bench_extra)
  in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (%d experiment(s))\n" path
    (List.length !bench_records)

(* ------------------------------------------------------------------ *)
(* E10: flat-array kernels vs legacy signature engines                 *)

(* E10d's models: the 9-buffer chain of examples/chain.mvl with the
   three properties [mval check] runs in the verify_chain benchmark, and
   a ring of [n] a-moves closed by one b-move, entered from a 10-state
   a-tail whose first state can also step into a dead end. *)
let mcl_chain k =
  let gate i =
    if i = 0 then "put" else if i = k then "get" else Printf.sprintf "g%d" i
  in
  let rec wire acc i =
    if i > k then acc
    else
      wire
        (Printf.sprintf "(%s |[%s]| Buf[%s, %s](0))" acc
           (gate (i - 1)) (gate (i - 1)) (gate i))
        (i + 1)
  in
  Printf.sprintf
    {|process Buf [input, output] (n : int[0..2]) :=
    [n < 2] -> input ; Buf[input, output](n + 1)
 [] [n > 0] -> output ; Buf[input, output](n - 1)
init %s
|}
    (wire (Printf.sprintf "Buf[%s, %s](0)" (gate 0) (gate 1)) 2)

let mcl_ring n =
  let labels = Label.create () in
  let a = Label.intern labels "a" and b = Label.intern labels "b"
  and c = Label.intern labels "c" in
  let tail = n and dead = n + 10 in
  Lts.make ~nb_states:(n + 11) ~initial:tail ~labels
    (List.init n (fun i -> if i < n - 1 then (i, a, i + 1) else (i, b, 0))
     @ List.init 10 (fun j ->
         (tail + j, a, if j < 9 then tail + j + 1 else 0))
     @ [ (tail, c, dead) ])

let mcl_cases () =
  let parse text = (text, Mv_mcl.Parser.formula_of_string text) in
  [ ( "buffer chain x9",
      Mv_calc.State_space.lts (Flow.model_of_text (mcl_chain 9)),
      [ ("deadlock freedom", Mv_mcl.Formula.Macro.deadlock_free);
        parse "[true*] <true* . get> true"; parse "[true*] <put> true" ] );
    ( "ring 4001 + tail",
      mcl_ring 4001,
      [ parse "[true*] <true* . b> true"; parse "mu X . <b> true or <a> X" ]
    ) ]

(* The Mv_kern comparison: for each case-study LTS, minimize with the
   legacy signature engines (the sequential test oracle, Mv_oracle in
   test/oracle/) and with the flat-array engines (strong = splitter
   worklist, branching = packed signatures over CSR), check
   the quotients are byte-identical (same .aut text, block ids
   included — the property the Mv_store cache keys depend on), and
   time both (best of 3). Lumping is compared the same way on the
   case's IMC ([Imc.of_lts]): the incremental engine's partition must
   equal the oracle's, block ids included. Then the solvers on the
   xSTream tandem steady state: the default direct (GTH) solve, the
   Gauss-Seidel sweeps, and their distance to the dense LU oracle.
   Then the kernel that still takes a pool, at -j 8 vs -j 1. Last, the
   mu-calculus checker against the Knaster-Tarski oracle (E10d). The
   detail lands in BENCH_multival.json under "e10" for CI. *)
let e10_kernels () =
  (* the first run's result and the best of three times *)
  let timed_best_of_3 f =
    let once () =
      let t0 = Unix.gettimeofday () in
      let result = f () in
      (result, Unix.gettimeofday () -. t0)
    in
    let result, t1 = once () in
    let t2 = snd (once ()) and t3 = snd (once ()) in
    (result, Float.min t1 (Float.min t2 t3))
  in
  let best_of_3 f = snd (timed_best_of_3 f) in
  let tandem c =
    Lts.hide
      (Mv_calc.State_space.lts
         (Mv_xstream.Queues.tandem ~arrival:e2_arrival ~transfer:4.0
            ~service:e2_service ~capacity1:c ~capacity2:c))
      ~gates:[ "push" ]
  in
  let cases =
    [ ("xSTream tandem 12+12", tandem 12);
      ("xSTream tandem 20+20", tandem 20);
      ("FAME2 MSI directory",
       Mv_calc.State_space.lts
         (Mv_fame.Distributed.spec Mv_fame.Distributed.Correct));
      ("FAUST 2x2 mesh",
       Mv_calc.State_space.lts
         (Mv_faust.Mesh.spec Mv_faust.Mesh.Port_buffered
            ~flows:Mv_faust.Mesh.crossing_flows)) ]
  in
  let rows = ref [] and case_json = ref [] in
  List.iter
    (fun (name, lts) ->
       let strong = Mv_bisim.Strong.minimize lts in
       let strong_legacy = Mv_oracle.Strong.minimize lts in
       let branching = Mv_bisim.Branching.minimize lts in
       let branching_legacy = Mv_oracle.Branching.minimize lts in
       let identical =
         Mv_lts.Aut.to_string strong = Mv_lts.Aut.to_string strong_legacy
         && Mv_lts.Aut.to_string branching
            = Mv_lts.Aut.to_string branching_legacy
       in
       let imc = Mv_imc.Imc.of_lts lts in
       let lump = Mv_imc.Lump.partition imc in
       let lump_legacy = Mv_oracle.Lump.partition imc in
       let lump_identical = lump = lump_legacy in
       let ts = best_of_3 (fun () -> Mv_bisim.Strong.minimize lts) in
       let tsl = best_of_3 (fun () -> Mv_oracle.Strong.minimize lts) in
       let tb = best_of_3 (fun () -> Mv_bisim.Branching.minimize lts) in
       let tbl =
         best_of_3 (fun () -> Mv_oracle.Branching.minimize lts)
       in
       let tl = best_of_3 (fun () -> Mv_imc.Lump.partition imc) in
       let tll = best_of_3 (fun () -> Mv_oracle.Lump.partition imc) in
       let speedup t_legacy t_kern =
         if t_kern > 0.0 then t_legacy /. t_kern else 0.0
       in
       rows :=
         [ name;
           string_of_int (Lts.nb_states lts);
           f tsl; f ts;
           Printf.sprintf "%.1fx" (speedup tsl ts);
           f tbl; f tb;
           Printf.sprintf "%.1fx" (speedup tbl tb);
           f tll; f tl;
           Printf.sprintf "%.1fx" (speedup tll tl);
           (if identical && lump_identical then "identical" else "DIFFERS") ]
         :: !rows;
       case_json :=
         Json.Obj
           [ ("name", Json.String name);
             ("states", Json.Int (Lts.nb_states lts));
             ("strong_states", Json.Int (Lts.nb_states strong));
             ("strong_states_legacy", Json.Int (Lts.nb_states strong_legacy));
             ("branching_states", Json.Int (Lts.nb_states branching));
             ("branching_states_legacy",
              Json.Int (Lts.nb_states branching_legacy));
             ("strong_legacy_s", Json.Float tsl);
             ("strong_kern_s", Json.Float ts);
             ("strong_speedup", Json.Float (speedup tsl ts));
             ("branching_legacy_s", Json.Float tbl);
             ("branching_kern_s", Json.Float tb);
             ("branching_speedup", Json.Float (speedup tbl tb));
             ("quotients_identical", Json.Bool identical);
             ("lump_states", Json.Int lump.Mv_bisim.Partition.count);
             ("lump_states_legacy",
              Json.Int lump_legacy.Mv_bisim.Partition.count);
             ("lump_legacy_s", Json.Float tll);
             ("lump_kern_s", Json.Float tl);
             ("lump_speedup", Json.Float (speedup tll tl));
             ("lump_identical", Json.Bool lump_identical) ]
         :: !case_json)
    cases;
  Report.table
    ~title:
      "E10a  Minimization engines: legacy signature rounds vs Mv_kern \
       flat-array kernels (best of 3; quotients and lumping partitions \
       must be identical)"
    ~header:
      [ "model"; "states"; "strong old"; "strong new"; "speedup";
        "branch old"; "branch new"; "speedup"; "lump old"; "lump new";
        "speedup"; "quotient" ]
    (List.rev !rows);
  (* solver kernels on the xSTream tandem steady-state *)
  let perf =
    Flow.Run.performance (keep [ "pop" ])
      (Mv_xstream.Queues.tandem ~arrival:e2_arrival ~transfer:4.0
         ~service:e2_service ~capacity1:12 ~capacity2:12)
  in
  let ctmc = perf.Flow.conversion.To_ctmc.ctmc in
  let count name = Obs.counter_value (Obs.counter name) in
  let direct0 = count "solver.direct"
  and fallbacks0 = count "solver.direct_fallbacks" in
  let pi_direct, stats_direct = Ctmc.steady_state_stats ctmc in
  let direct_chosen =
    count "solver.direct" - direct0 = 1
    && count "solver.direct_fallbacks" = fallbacks0
    && stats_direct.Mv_markov.Solver_stats.iterations = 0
  in
  let band =
    Printf.sprintf "%.0f/%.0f"
      (Obs.gauge_value (Obs.gauge "solver.bandwidth_lower"))
      (Obs.gauge_value (Obs.gauge "solver.bandwidth_upper"))
  in
  let solve m = Ctmc.steady_state_stats ~method_:m ctmc in
  let pi_gs, stats_gs = solve Mv_kern.Solver.Gauss_seidel in
  let pi_lu = Mv_oracle.Linalg.steady_state_exact ctmc in
  let max_abs_diff a b =
    let d = ref 0.0 in
    Array.iteri (fun i x -> d := Float.max !d (Float.abs (x -. b.(i)))) a;
    !d
  in
  let direct_vs_lu = max_abs_diff pi_direct pi_lu in
  let gs_vs_direct = max_abs_diff pi_gs pi_direct in
  let time_direct = best_of_3 (fun () -> Ctmc.steady_state_stats ctmc) in
  let time_gs = best_of_3 (fun () -> solve Mv_kern.Solver.Gauss_seidel) in
  let time_lu =
    best_of_3 (fun () -> Mv_oracle.Linalg.steady_state_exact ctmc)
  in
  let row name (s : Mv_markov.Solver_stats.t) pi time =
    [ name;
      string_of_int s.Mv_markov.Solver_stats.iterations;
      f s.Mv_markov.Solver_stats.residual;
      string_of_bool s.Mv_markov.Solver_stats.converged;
      Printf.sprintf "%.1e" (max_abs_diff pi pi_lu);
      f time ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "E10b  Steady-state solvers on the xSTream tandem CTMC (%d states, \
          band %s in BFS order; best of 3)"
         (Ctmc.nb_states ctmc) band)
    ~header:
      [ "method"; "iterations"; "residual"; "converged"; "max |pi - LU|";
        "time" ]
    [ row
        (if direct_chosen then "direct GTH (default)" else "default (swept)")
        stats_direct pi_direct time_direct;
      row "gauss-seidel" stats_gs pi_gs time_gs;
      [ "dense LU (oracle)"; "-"; "-"; "-"; "0"; f time_lu ] ];
  (* E10c: the kernel that still takes a pool — branching refinement
     (signatures per inert-tau height) — at -j 8 against the
     sequential -j 1 path. The partition must be identical (block ids
     included); the speedup column is honest about the host (a
     single-core container reports ~1.0x or below). *)
  let refine_lts = tandem 20 in
  let branching_j1 = Mv_bisim.Branching.partition refine_lts in
  let branching_j1_s =
    best_of_3 (fun () -> Mv_bisim.Branching.partition refine_lts)
  in
  let branching_j8_s, branching_identical =
    Mv_par.Pool.scope ~domains:8 (fun pool ->
        let branching_j8 = Mv_bisim.Branching.partition ~pool refine_lts in
        let branching_j8_s =
          best_of_3 (fun () -> Mv_bisim.Branching.partition ~pool refine_lts)
        in
        (branching_j8_s, branching_j8 = branching_j1))
  in
  let ratio t1 t8 = if t8 > 0.0 then t1 /. t8 else 0.0 in
  Report.table
    ~title:
      (Printf.sprintf
         "E10c  Pooled kernel at -j 8 vs -j 1 (best of 3; output \
          identical by construction; host reports %d recommended \
          domains)"
         (Mv_par.Pool.auto ()))
    ~header:[ "kernel"; "-j 1"; "-j 8"; "speedup (j8/j1)"; "output" ]
    [ [ "branching partition (tandem 20+20)"; f branching_j1_s;
        f branching_j8_s;
        Printf.sprintf "%.2fx" (ratio branching_j1_s branching_j8_s);
        (if branching_identical then "identical" else "DIFFERS") ] ];
  (* E10d: the mu-calculus checker against the Knaster-Tarski oracle,
     on the 9-buffer chain's [mval check] properties and on a ring
     whose nested fixpoint the oracle iterates once per ring state *)
  let mcl_rows = ref [] and mcl_json = ref [] in
  List.iter
    (fun (model, lts, formulas) ->
       List.iter
         (fun (name, formula) ->
            let sat, t =
              timed_best_of_3 (fun () -> Mv_mcl.Eval.sat lts formula)
            in
            let oracle, t_oracle =
              timed_best_of_3 (fun () -> Mv_oracle.Eval.sat lts formula)
            in
            let identical = Mv_util.Bitset.equal sat oracle in
            mcl_rows :=
              [ model; string_of_int (Lts.nb_states lts); name; f t_oracle;
                f t; Printf.sprintf "%.1fx" (ratio t_oracle t);
                (if identical then "identical" else "DIFFERS") ]
              :: !mcl_rows;
            mcl_json :=
              Json.Obj
                [ ("model", Json.String model);
                  ("states", Json.Int (Lts.nb_states lts));
                  ("formula", Json.String name);
                  ("oracle_s", Json.Float t_oracle);
                  ("eval_s", Json.Float t);
                  ("sat_states", Json.Int (Mv_util.Bitset.cardinal sat));
                  ("sets_identical", Json.Bool identical) ]
              :: !mcl_json)
         formulas)
    (mcl_cases ());
  Report.table
    ~title:
      "E10d  Mu-calculus checker: linear-time propagation (Mv_mcl.Eval) \
       vs the Knaster-Tarski oracle (best of 3; satisfying sets must be \
       identical)"
    ~header:
      [ "model"; "states"; "formula"; "oracle"; "eval"; "speedup"; "sets" ]
    (List.rev !mcl_rows);
  bench_extra :=
    ( "e10",
      Json.Obj
        [ ("cases", Json.List (List.rev !case_json));
          ("gs_iterations", Json.Int stats_gs.Mv_markov.Solver_stats.iterations);
          ("direct_chosen", Json.Bool direct_chosen);
          ("direct_vs_lu", Json.Float direct_vs_lu);
          ("gs_vs_direct", Json.Float gs_vs_direct);
          ("direct_s", Json.Float time_direct);
          ("gs_s", Json.Float time_gs);
          ("branching_j1_s", Json.Float branching_j1_s);
          ("branching_j8_s", Json.Float branching_j8_s);
          ("branching_speedup_j8",
           Json.Float (ratio branching_j1_s branching_j8_s));
          ("branching_partition_identical", Json.Bool branching_identical);
          ("mcl", Json.List (List.rev !mcl_json)) ] )
    :: !bench_extra

(* ------------------------------------------------------------------ *)
(* E11: mvald under concurrent load                                    *)

(* An in-process Mv_serve server (Unix socket in a sandbox, its own
   artifact cache) hammered by concurrent client threads, one
   connection each — the same shape as `mvald` + N × `mval --remote`.
   Three phases of `minimize` requests over distinct buffer-chain
   models (a distinct input gate per model = a distinct cache key):
   cold (every request computes and fills the cache), warm (the same
   requests replayed, all cache hits) and mixed (half warm, half new).
   Per phase: wall clock, req/s, p50/p99 latency and the cache
   provenance summed over the responses. CI asserts warm req/s >= 5x
   cold req/s from the "e11" record in BENCH_multival.json.

   The workload is the E6 buffer chain (7 one-definition buffers wired
   input-to-output, internal gates hidden): generation explores 3^7
   states through the Par/Hide tree and branching minimization
   collapses the tau mass to a 15-state counter, so a cold request is
   dominated by computation while a warm one only replays two small
   artifacts — the cache-friendly many-small-queries shape the daemon
   exists for. *)

let e11_clients = 8
let e11_per_client = 4
let e11_workers = 4
let e11_buffers = 7

let e11_model_text k =
  let buf input output = Printf.sprintf "Buf[%s, %s](0)" input output in
  let gate i = Printf.sprintf "g%d" i in
  let rec wire acc i =
    if i >= e11_buffers then acc
    else
      let out = if i = e11_buffers - 1 then "pop" else gate i in
      wire
        (Printf.sprintf "(%s |[%s]| %s)" acc
           (gate (i - 1))
           (buf (gate (i - 1)) out))
        (i + 1)
  in
  let init = wire (buf (Printf.sprintf "push%d" k) (gate 0)) 1 in
  let hidden = String.concat ", " (List.init (e11_buffers - 1) gate) in
  Printf.sprintf
    {|process Buf [input, output] (n : int[0..2]) :=
    [n < 2] -> input ; Buf[input, output](n + 1)
 [] [n > 0] -> output ; Buf[input, output](n - 1)
init hide %s in %s
|}
    hidden init

let e11_serve () =
  let module Proto = Mv_serve.Proto in
  let module Server = Mv_serve.Server in
  let module Client = Mv_serve.Client in
  let dir = Filename.temp_file "mv_e11" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec remove_tree path =
    if Sys.is_directory path then begin
      Array.iter
        (fun entry -> remove_tree (Filename.concat path entry))
        (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let cache = Mv_store.Cache.open_dir (Filename.concat dir "cache") in
  let server =
    Server.create
      {
        Server.addr = Proto.Unix_path (Filename.concat dir "mvald.sock");
        workers = e11_workers;
        queue_capacity = 256;
        max_frame = Proto.default_max_frame;
        cache = Some cache;
        slow_s = Server.default_slow_s;
      }
  in
  let addr = Server.addr server in
  let server_thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.initiate_drain server;
      Thread.join server_thread)
  @@ fun () ->
  let minimize_args k =
    Json.Obj
      [
        ( "model",
          Json.Obj
            [
              ("kind", Json.String "mvl");
              ("text", Json.String (e11_model_text k));
            ] );
      ]
  in
  (* One phase: client [i] issues the model ids [plan i] in order on
     its own connection; all clients run concurrently. Returns the
     phase wall clock and every (latency, server exec time, hits,
     misses). *)
  let run_phase plan =
    let results = Array.make e11_clients [] in
    let worker i =
      Client.with_connection addr @@ fun conn ->
      results.(i) <-
        List.map
          (fun k ->
             let t0 = Unix.gettimeofday () in
             let response = Client.call conn ~op:"minimize" (minimize_args k) in
             let latency = Unix.gettimeofday () -. t0 in
             (match response.Proto.outcome with
              | Ok _ -> ()
              | Error e -> failwith ("E11 request failed: " ^ e.Proto.message));
             let hits, misses =
               match response.Proto.cache with
               | Some provenance -> provenance
               | None -> (0, 0)
             in
             (latency, response.Proto.elapsed_s, hits, misses))
          (plan i)
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init e11_clients (fun i -> Thread.create worker i) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    (wall, List.concat (Array.to_list results))
  in
  let percentile p latencies =
    let arr = Array.of_list latencies in
    Array.sort compare arr;
    let n = Array.length arr in
    if n = 0 then 0.0
    else
      arr.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  in
  let fresh = e11_clients * e11_per_client in
  let cold_plan i = List.init e11_per_client (fun j -> (i * e11_per_client) + j) in
  (* half replays of the cold set, half never-seen models *)
  let mixed_plan i =
    List.init e11_per_client (fun j ->
        let k = (i * e11_per_client) + j in
        if j mod 2 = 0 then k else fresh + k)
  in
  let phases =
    List.map
      (fun (name, plan) ->
         let wall, results = run_phase plan in
         let latencies = List.map (fun (l, _, _, _) -> l) results in
         let execs = List.map (fun (_, e, _, _) -> e) results in
         let hits = List.fold_left (fun a (_, _, h, _) -> a + h) 0 results in
         let misses = List.fold_left (fun a (_, _, _, m) -> a + m) 0 results in
         let requests = List.length results in
         let rps =
           if wall > 0.0 then float_of_int requests /. wall else 0.0
         in
         ( name,
           requests,
           wall,
           rps,
           1000.0 *. percentile 0.50 latencies,
           1000.0 *. percentile 0.99 latencies,
           1000.0 *. percentile 0.50 execs,
           hits,
           misses ) )
      [ ("cold", cold_plan); ("warm", cold_plan); ("mixed", mixed_plan) ]
  in
  let of_phase name pick =
    match
      List.find_opt (fun (n, _, _, _, _, _, _, _, _) -> n = name) phases
    with
    | Some phase -> pick phase
    | None -> 0.0
  in
  let rps_of name = of_phase name (fun (_, _, _, rps, _, _, _, _, _) -> rps) in
  let exec_of name =
    of_phase name (fun (_, _, _, _, _, _, exec, _, _) -> exec)
  in
  (* the server executed in this process, so its registry is ours:
     read the per-op request-latency quantiles it recorded *)
  let server_latency_quantile q =
    let h = Obs.histogram "serve.request_latency_s.minimize" in
    let v = Obs.quantile h q in
    if Float.is_nan v then 0.0 else 1000.0 *. v
  in
  let warm_over_cold =
    let cold = rps_of "cold" in
    if cold > 0.0 then rps_of "warm" /. cold else 0.0
  in
  (* the same gap from the server's own per-request exec times (median
     cold over median warm): no client-side queueing, no phase walls *)
  let warm_over_cold_exec =
    let warm = exec_of "warm" in
    if warm > 0.0 then exec_of "cold" /. warm else 0.0
  in
  let gauges =
    Client.with_connection addr @@ fun conn ->
    match (Client.call conn ~op:"metrics" (Json.Obj [])).Proto.outcome with
    | Ok (Json.Obj fields) ->
      (match List.assoc_opt "server" fields with
       | Some (Json.Obj _ as server) -> server
       | _ -> Json.Null)
    | _ -> Json.Null
  in
  Report.table
    ~title:
      (Printf.sprintf
         "E11  mvald load bench: %d clients x %d requests/phase, %d workers, \
          unix socket (warm/cold req/s %.1fx, cold/warm exec %.1fx)"
         e11_clients e11_per_client e11_workers warm_over_cold
         warm_over_cold_exec)
    ~header:
      [ "phase"; "requests"; "wall s"; "req/s"; "p50 ms"; "p99 ms";
        "exec p50 ms"; "hits"; "misses" ]
    (List.map
       (fun (name, requests, wall, rps, p50, p99, exec, hits, misses) ->
          [ name; string_of_int requests; f wall; f rps; f p50; f p99;
            f exec; string_of_int hits; string_of_int misses ])
       phases);
  bench_extra :=
    ( "e11",
      Json.Obj
        [
          ("clients", Json.Int e11_clients);
          ("requests_per_client", Json.Int e11_per_client);
          ("workers", Json.Int e11_workers);
          ( "phases",
            Json.List
              (List.map
                 (fun (name, requests, wall, rps, p50, p99, exec, hits, misses) ->
                    Json.Obj
                      [
                        ("name", Json.String name);
                        ("requests", Json.Int requests);
                        ("wall_s", Json.Float wall);
                        ("rps", Json.Float rps);
                        ("p50_ms", Json.Float p50);
                        ("p99_ms", Json.Float p99);
                        ("exec_p50_ms", Json.Float exec);
                        ("hits", Json.Int hits);
                        ("misses", Json.Int misses);
                      ])
                 phases) );
          ("warm_over_cold_rps", Json.Float warm_over_cold);
          ("warm_over_cold_exec", Json.Float warm_over_cold_exec);
          (* headline warm-path client latencies, plus the server's own
             per-op request-latency quantiles (shared in-process
             registry) — what CI's bench-smoke asserts on *)
          ("warm_p50_ms", Json.Float (of_phase "warm" (fun (_, _, _, _, p50, _, _, _, _) -> p50)));
          ("warm_p99_ms", Json.Float (of_phase "warm" (fun (_, _, _, _, _, p99, _, _, _) -> p99)));
          ( "server_latency_p50_ms",
            Json.Float (server_latency_quantile 0.50) );
          ( "server_latency_p99_ms",
            Json.Float (server_latency_quantile 0.99) );
          ("server", gauges);
        ] )
    :: !bench_extra

(* ------------------------------------------------------------------ *)
(* E12: out-of-core generate -> strong-minimize at 10^7 states         *)

(* The out-of-core pipeline on a state space that dwarfs every other
   experiment: a tandem of [n] buffers of capacity [c] — arrivals,
   stage-to-stage transfers, departures — with (c+1)^n reachable
   states, driven as a direct int-array state machine so the
   measurement is the pipeline, not the MVL interpreter. The OOC phase
   runs FIRST (getrusage maxrss is a process-wide high-water mark, so
   the bounded-RAM phase must take its snapshot before the in-RAM
   phase raises the mark), then the same space is generated and
   minimized in RAM and both artifacts are byte-compared.

   MVAL_E12_STATES scales the instance (default 10^7; CI smoke uses
   10^4). The "e12" record lands in BENCH_multival.json. *)

(* The E12 instance: m * 10^n states as a (c+1)-ary tandem of n stages
   crossed with an m-slot rotating grant vector. The grant advances one
   slot on every action but gates nothing, so states differing only in
   the grant are strongly bisimilar and the quotient collapses m-fold
   back to the tandem — the generate-big / minimize-small shape the
   out-of-core path exists for. m is kept coprime with n+1 so every
   (tandem, grant) pair is reachable (cycle lengths are multiples of
   n+1, so the reachable grant residues per tandem state fall in
   gcd(m, n+1) classes). *)

module E12_state = struct
  type t = int array

  let equal = ( = )
  let hash t = Hashtbl.hash (Marshal.to_string t [ Marshal.No_sharing ])
end

module E12_explore = Mv_lts.Explore.Make (E12_state)

type e12_instance = {
  e12_m : int;
  e12_n : int;
  e12_states : int; (* exact reachable count *)
  e12_initial : int array;
  e12_successors : int array -> (string * int array) list;
}

let e12_target () =
  try int_of_string (Sys.getenv "MVAL_E12_STATES")
  with Not_found -> 10_000_000

let e12_hot_budget_mb = 128

(* The out-of-core child is bounded by its own peak RSS (getrusage): it
   may exceed the 2 x hot memory budget by this slack, which covers the
   runtime, the minimizer's arrays and the mapped pages of the segment
   and scratch files that the kernel leaves resident while memory is
   free. A broken bound fails E12; nothing is retried. *)
let e12_rss_slack_mb = 256

let e12_instance target =
  let c = 9 in
  let n =
    max 1
      (int_of_float (Float.round (log (float target /. 24.) /. log 10.)))
  in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let m =
    let rec first k = if gcd k (n + 1) = 1 then k else first (k + 1) in
    first 24
  in
  let states_exact = m * int_of_float (Float.pow 10. (float n)) in
  let width = n + m in
  (* apply occupancy edits, then rotate the one-hot grant in s.(n..) *)
  let move s edits =
    let t = Array.copy s in
    List.iter (fun (i, d) -> t.(i) <- t.(i) + d) edits;
    let g = ref 0 in
    for j = 0 to m - 1 do
      if s.(n + j) = 1 then g := j
    done;
    t.(n + !g) <- 0;
    t.(n + ((!g + 1) mod m)) <- 1;
    t
  in
  let successors s =
    let moves = ref [] in
    if s.(n - 1) > 0 then moves := [ ("dep", move s [ (n - 1, -1) ]) ];
    for i = n - 2 downto 0 do
      if s.(i) > 0 && s.(i + 1) < c then
        moves :=
          (Printf.sprintf "mv%d" i, move s [ (i, -1); (i + 1, 1) ])
          :: !moves
    done;
    if s.(0) < c then moves := ("arr", move s [ (0, 1) ]) :: !moves;
    !moves
  in
  {
    e12_m = m;
    e12_n = n;
    e12_states = states_exact;
    e12_initial = Array.init width (fun i -> if i = n then 1 else 0);
    e12_successors = successors;
  }

let e12_wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The whole out-of-core pipeline. Runs inside the child process (see
   the MVAL_E12_CHILD hook in the main entry): OCaml 5 forbids
   [Unix.fork] once domains have ever been spawned (E8/E10 spawn
   pools), so the bench re-executes its own binary instead. *)
let e12_ooc_pipeline ~target ~dir () =
  let inst = e12_instance target in
  let ooc_mvb = Filename.concat dir "ooc.mvb" in
  let ooc_min_mvb = Filename.concat dir "ooc_min.mvb" in
  let config =
    { Flow.Config.default with
      mem_budget_mb = Some (2 * e12_hot_budget_mb);
      scratch_dir = Some dir;
    }
  in
  let (ooc : Mv_lts.Explore.ooc_outcome), generate_s =
    e12_wall (fun () ->
        let w = Mvb.Stream.create ooc_mvb in
        match
          E12_explore.run_ooc
            ~max_states:(inst.e12_states + 1)
            ~expect:inst.e12_states
            ~hot_budget_bytes:(e12_hot_budget_mb * 1024 * 1024)
            ~scratch_dir:dir
            ~labels:(Mvb.Stream.labels w)
            ~emit:(Mvb.Stream.add_state w)
            ~initial:inst.e12_initial ~successors:inst.e12_successors ()
        with
        | outcome ->
          Mvb.Stream.finish w ~initial:0;
          outcome
        | exception e ->
          Mvb.Stream.abort w;
          raise e)
  in
  let _minimized, minimize_s =
    e12_wall (fun () ->
        Flow.Run.minimize_mvb config Flow.Strong ~src:ooc_mvb
          ~dst:ooc_min_mvb)
  in
  ( ooc.Mv_lts.Explore.ooc_states,
    ooc.Mv_lts.Explore.ooc_transitions,
    generate_s,
    minimize_s )

(* child entry: run the pipeline, marshal the result to stdout *)
let e12_child_main dir =
  (* bound the GC's heap slack so the child's RSS tracks its live set;
     the extra collection work is noise next to the I/O *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 60 };
  set_binary_mode_out stdout true;
  let r = e12_ooc_pipeline ~target:(e12_target ()) ~dir () in
  Marshal.to_channel stdout (r, Obs.maxrss_kb ()) [];
  flush stdout;
  exit 0

let e12_out_of_core () =
  let target = e12_target () in
  let inst = e12_instance target in
  let m = inst.e12_m and n = inst.e12_n in
  let states_exact = inst.e12_states in
  let max_states = states_exact + 1 in
  let dir = Filename.temp_file "mv-e12" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path name = Filename.concat dir name in
  let remove_tree () =
    Array.iter (fun e -> Sys.remove (path e)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:remove_tree @@ fun () ->
  let wall = e12_wall in
  let hot_budget_mb = e12_hot_budget_mb in
  let ooc_mvb = path "ooc.mvb" in
  let ooc_min_mvb = path "ooc_min.mvb" in
  (* run the OOC pipeline in a child process: its maxrss is then the
     OOC phase's own high-water, not entangled with the parent's *)
  let run_child () =
    let rd, wr = Unix.pipe () in
    let keep e =
      not (String.length e >= 9 && String.sub e 0 9 = "MVAL_E12_")
    in
    let env =
      Array.append
        (Array.of_seq
           (Seq.filter keep (Array.to_seq (Unix.environment ()))))
        [|
          Printf.sprintf "MVAL_E12_CHILD=%s" dir;
          Printf.sprintf "MVAL_E12_STATES=%d" target;
        |]
    in
    let pid =
      Unix.create_process_env Sys.executable_name
        [| Sys.executable_name |]
        env Unix.stdin wr Unix.stderr
    in
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let payload =
      try
        Some (Marshal.from_channel ic : (int * int * float * float) * int)
      with _ -> None
    in
    close_in ic;
    let _, st = Unix.waitpid [] pid in
    match (payload, st) with
    | Some r, Unix.WEXITED 0 -> Some r
    | _ -> None
  in
  (* -- phase 1: out of core (bounded RAM) -- *)
  let (ooc_states, ooc_transitions, ooc_generate_s, ooc_minimize_s),
      ooc_maxrss_kb =
    match run_child () with
    | Some r -> r
    | None -> failwith "E12: out-of-core pipeline failed in the child"
  in
  let bound_mb = (2 * hot_budget_mb) + e12_rss_slack_mb in
  if ooc_maxrss_kb > bound_mb * 1024 then
    failwith
      (Printf.sprintf
         "E12: the out-of-core child peaked at %d MB RSS, over its bound of \
          %d MB (%d MB budget + %d MB slack)"
         (ooc_maxrss_kb / 1024) bound_mb (2 * hot_budget_mb) e12_rss_slack_mb);
  let ooc_minimized_states = (Mvb.stats ooc_min_mvb).Mvb.s_nb_states in
  (* -- phase 2: in RAM (the reference) -- *)
  let ram, ram_generate_s =
    wall (fun () ->
        (E12_explore.run ~max_states ~expect:states_exact
           ~initial:inst.e12_initial ~successors:inst.e12_successors ())
          .Mv_lts.Explore.lts)
  in
  let ram_min, ram_minimize_s = wall (fun () -> Mv_bisim.Strong.minimize ram) in
  let ram_maxrss_kb = Obs.maxrss_kb () in
  let ram_mvb = path "ram.mvb" in
  Mvb.write_file ram_mvb ram;
  let ram_min_mvb = path "ram_min.mvb" in
  Mvb.write_file ram_min_mvb ram_min;
  let same a b =
    let read p =
      let ic = open_in_bin p in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    read a = read b
  in
  let generated_identical = same ooc_mvb ram_mvb in
  let quotients_identical =
    generated_identical && same ooc_min_mvb ram_min_mvb
    && ooc_minimized_states = Lts.nb_states ram_min
  in
  let file_bytes = (Unix.stat ooc_mvb).Unix.st_size in
  (* -- the composition planner on a network where order matters -- *)
  let planner_leaf name body =
    let spec =
      Flow.model_of_text
        (Printf.sprintf "process %s := %s\ninit %s" name body name)
    in
    Net.Leaf (name, Flow.Run.generate Flow.Config.default spec)
  in
  let planner_node =
    Net.par_list [ "g" ]
      [ planner_leaf "A" "g ; a1 ; a2 ; a3 ; A";
        planner_leaf "C" "g ; c1 ; c2 ; c3 ; C";
        Net.Leaf ("B", Flow.Run.generate Flow.Config.default
                         (Flow.model_of_text "init stop"));
      ]
  in
  let naive = Net.evaluate ~plan:`Naive ~strategy:`Compositional planner_node in
  let greedy =
    Net.evaluate ~plan:`Greedy ~strategy:`Compositional planner_node
  in
  let ratio =
    if ooc_maxrss_kb > 0 then float ram_maxrss_kb /. float ooc_maxrss_kb
    else 0.0
  in
  Report.table
    ~title:
      (Printf.sprintf
         "E12  Out-of-core pipeline: %d states, %d transitions (tandem \
          10^%d x %d-slot grant)"
         ooc_states ooc_transitions n m)
    ~header:[ "pipeline"; "generate"; "strong minimize"; "peak RSS" ]
    [
      [ "out-of-core";
        Printf.sprintf "%.1fs" ooc_generate_s;
        Printf.sprintf "%.1fs" ooc_minimize_s;
        Printf.sprintf "%d MB (bound %d MB)" (ooc_maxrss_kb / 1024) bound_mb ];
      [ "in-RAM";
        Printf.sprintf "%.1fs" ram_generate_s;
        Printf.sprintf "%.1fs" ram_minimize_s;
        Printf.sprintf "%d MB (%.1fx)" (ram_maxrss_kb / 1024) ratio ];
      [ "artifacts";
        (if generated_identical then "identical" else "DIFFER");
        (if quotients_identical then "identical" else "DIFFER");
        Printf.sprintf "%d MB .mvb" (file_bytes / 1024 / 1024) ];
      [ "planner";
        Printf.sprintf "naive peak %d" naive.Net.peak_states;
        Printf.sprintf "greedy peak %d" greedy.Net.peak_states;
        (if greedy.Net.peak_states < naive.Net.peak_states then "greedy wins"
         else "tie") ];
    ];
  bench_extra :=
    ( "e12",
      Json.Obj
        [
          ("states", Json.Int ooc_states);
          ("transitions", Json.Int ooc_transitions);
          ("minimized_states", Json.Int ooc_minimized_states);
          ("mvb_bytes", Json.Int file_bytes);
          ("hot_budget_mb", Json.Int hot_budget_mb);
          ("mem_budget_mb", Json.Int (2 * hot_budget_mb));
          ("ooc_rss_bound_mb", Json.Int bound_mb);
          ("ooc_generate_wall_s", Json.Float ooc_generate_s);
          ("ooc_minimize_wall_s", Json.Float ooc_minimize_s);
          ("ram_generate_wall_s", Json.Float ram_generate_s);
          ("ram_minimize_wall_s", Json.Float ram_minimize_s);
          ("ooc_maxrss_kb", Json.Int ooc_maxrss_kb);
          ("ram_maxrss_kb", Json.Int ram_maxrss_kb);
          ("ram_over_ooc_rss", Json.Float ratio);
          ("generated_identical", Json.Bool generated_identical);
          ("quotients_identical", Json.Bool quotients_identical);
          ("planner_naive_peak", Json.Int naive.Net.peak_states);
          ("planner_greedy_peak", Json.Int greedy.Net.peak_states);
          ( "planner_wins",
            Json.Bool (greedy.Net.peak_states < naive.Net.peak_states) );
        ] )
    :: !bench_extra

(* ------------------------------------------------------------------ *)
(* E9: the artifact cache: cold vs warm SVL run                        *)

(* One SVL script over the xSTream tandem, run twice against the same
   cache directory in a throwaway sandbox. The cold run computes and
   stores generation, both reductions and the lumping; the warm run
   replays them from the cache. Steps must report byte-identical
   descriptions and details across the two runs — the cache only
   changes where the artifacts come from, never what they are. Uses
   [timed] so BENCH_multival.json records E9-cold vs E9-warm wall
   seconds. *)
let e9_cache () =
  let dir = Filename.temp_file "mv_e9" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec remove_tree path =
    if Sys.is_directory path then begin
      Array.iter
        (fun entry -> remove_tree (Filename.concat path entry))
        (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let spec =
    Mv_xstream.Queues.tandem ~arrival:e2_arrival ~transfer:4.0
      ~service:e2_service ~capacity1:12 ~capacity2:12
  in
  let oc = open_out (Filename.concat dir "tandem.mvl") in
  output_string oc (Mv_calc.Ast.spec_to_string spec);
  close_out oc;
  let script =
    String.concat "\n"
      [
        {|"tandem.aut" = generate "tandem.mvl" hide push ;|};
        {|"min.mvb" = branching reduction of "tandem.aut" ;|};
        {|"wmin.mvb" = weak reduction of "tandem.aut" ;|};
        {|solve "tandem.mvl" keep pop ;|};
      ]
  in
  let cache = Mv_store.Cache.open_dir (Filename.concat dir "cache") in
  let run () = Mv_core.Svl.run_string ~cache ~dir script in
  let cold = ref [] and warm = ref [] in
  timed "E9-cold" (fun () -> cold := run ()) ();
  timed "E9-warm" (fun () -> warm := run ()) ();
  let wall name =
    match List.find_opt (fun (n, _, _, _, _, _) -> n = name) !bench_records with
    | Some (_, w, _, _, _, _) -> w
    | None -> 0.0
  in
  let hits_of step =
    match step.Mv_core.Svl.outcome with
    | Mv_core.Svl.Passed { cache = Some { hits; misses }; _ } ->
      Printf.sprintf "%d/%d" hits (hits + misses)
    | _ -> "-"
  in
  let rows =
    List.map2
      (fun c w ->
         [
           c.Mv_core.Svl.description;
           hits_of c;
           hits_of w;
           (if
              c.Mv_core.Svl.detail = w.Mv_core.Svl.detail
              && c.Mv_core.Svl.description = w.Mv_core.Svl.description
            then "identical"
            else "DIFFERS");
         ])
      !cold !warm
  in
  let cold_s = wall "E9-cold" and warm_s = wall "E9-warm" in
  Report.table
    ~title:
      (Printf.sprintf
         "E9  Artifact cache: cold %.3fs vs warm %.3fs (%.1fx) on the \
          tandem SVL script"
         cold_s warm_s
         (if warm_s > 0.0 then cold_s /. warm_s else 0.0))
    ~header:[ "step"; "cold hits/ops"; "warm hits/ops"; "result" ]
    rows

let () =
  (* E12's out-of-core child: this binary re-executed with the scratch
     dir in the environment — run only the pipeline, never a section *)
  match Sys.getenv_opt "MVAL_E12_CHILD" with
  | Some dir -> e12_child_main dir
  | None ->
  Obs.enable ();
  let sections =
    [ ("E1", e1_fame_mpi); ("E2", e2_xstream); ("E3", e3_verification);
      ("E4", e4_erlang);
      ("E5", fun () -> e5_nondet (); e5_nondet_mvl ());
      ("E6", e6_compositional); ("E7", e7_minimization);
      ("E8", e8_scaling); ("E10", e10_kernels); ("E11", e11_serve);
      ("E12", e12_out_of_core) ]
  in
  let raw_args =
    match Array.to_list Sys.argv with _ :: args -> args | [] -> []
  in
  let only =
    List.filter
      (fun arg ->
         match String.index_opt arg '=' with
         | Some i when String.sub arg 0 i = "csv" ->
           Report.set_csv_dir
             (Some (String.sub arg (i + 1) (String.length arg - i - 1)));
           false
         | _ -> true)
      raw_args
  in
  let wanted name = only = [] || List.mem name only in
  List.iter
    (fun (name, run) -> if wanted name then timed name run ())
    sections;
  if wanted "E9" then e9_cache ();
  if wanted "bench" then timed "bench" bechamel_kernels ();
  write_bench_json "BENCH_multival.json"
