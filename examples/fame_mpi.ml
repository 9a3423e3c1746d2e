(* FAME2 case study: verify the distributed MSI directory protocol
   (including catching an injected bug), then predict the latency of an
   MPI ping-pong benchmark across interconnect topologies, MPI
   implementations and coherence protocols - the Bull workloads of the
   paper's SS3-4.

   Run with: dune exec examples/fame_mpi.exe *)

module Protocol = Mv_fame.Protocol
module Topology = Mv_fame.Topology
module Mpi = Mv_fame.Mpi
module Benchmark = Mv_fame.Benchmark
module Distributed = Mv_fame.Distributed
module Flow = Mv_core.Flow
module Report = Mv_core.Report

let () =
  (* 1. Verify the message-level MSI directory protocol *)
  let verify label bug properties =
    let v =
      Flow.Run.verify Flow.Config.default (Distributed.spec bug) properties
    in
    Printf.printf "%s (%d states):\n" label
      (Mv_lts.Lts.nb_states v.Flow.lts);
    List.iter
      (fun r ->
         Printf.printf "  %-45s %s\n" r.Flow.property_name
           (if r.Flow.holds then "holds" else "VIOLATED"))
      v.Flow.results
  in
  verify "MSI directory protocol" Distributed.Correct Distributed.properties;
  verify "with dropped invalidation (injected bug)"
    Distributed.Dropped_invalidation
    [ Distributed.coherence ];

  (* 2. Predict MPI ping-pong latency *)
  let rates = Benchmark.default_rates in
  let rows =
    List.concat_map
      (fun topology ->
         List.map
           (fun implementation ->
              let latency size =
                Benchmark.round_latency Protocol.Msi topology implementation
                  ~size ~rates
              in
              [ Topology.name topology;
                Mpi.name implementation;
                Report.float_cell (latency 1);
                Report.float_cell (latency 8) ])
           Mpi.all)
      Topology.all
  in
  Report.table
    ~title:"MPI ping-pong round latency (MSI): topology x implementation"
    ~header:[ "topology"; "mpi"; "size 1"; "size 8" ]
    rows;

  (* 3. Coherence protocol comparison on the same benchmark *)
  let rows =
    List.map
      (fun variant ->
         [ Protocol.variant_name variant;
           Report.float_cell
             (Benchmark.round_latency variant Topology.Bus Mpi.Eager ~size:1
                ~rates) ])
      [ Protocol.Msi; Protocol.Mesi; Protocol.Msi_migratory ]
  in
  Report.table ~title:"protocol comparison (bus, eager, size 1)"
    ~header:[ "protocol"; "latency" ]
    rows;

  (* 4. MPI benchmark *programs*: per-rank send/recv/barrier/work code
     running concurrently - overlapping communication separates the
     topologies more than any serialized benchmark can *)
  let module Prog = Mv_fame.Mpi_program in
  let rows =
    List.concat_map
      (fun (name, programs) ->
         List.map
           (fun topology ->
              [ name;
                Topology.name topology;
                Report.float_cell
                  (Prog.iteration_latency ~programs topology ~rates) ])
           [ Topology.Bus; Topology.Crossbar ])
      [
        ("ping-pong", Prog.pingpong ~partner:1 ~size:2);
        ("simultaneous ring x3", Prog.simultaneous_ring ~ranks:3 ~size:2);
        ("work+barrier x3", Prog.work_barrier ~ranks:3 ~work_mean:0.1);
      ]
  in
  Report.table ~title:"concurrent MPI rank programs (time per iteration)"
    ~header:[ "program"; "topology"; "latency" ]
    rows;

  (* 5. The eager/rendezvous crossover *)
  let rows =
    List.map
      (fun size ->
         let eager =
           Benchmark.round_latency Protocol.Msi Topology.Bus Mpi.Eager ~size
             ~rates
         in
         let rendezvous =
           Benchmark.round_latency Protocol.Msi Topology.Bus Mpi.Rendezvous
             ~size ~rates
         in
         [ string_of_int size;
           Report.float_cell eager;
           Report.float_cell rendezvous;
           (if eager < rendezvous then "eager" else "rendezvous") ])
      [ 1; 2; 4; 8; 16 ]
  in
  Report.table ~title:"eager vs rendezvous: the crossover"
    ~header:[ "size"; "eager"; "rendezvous"; "winner" ]
    rows
