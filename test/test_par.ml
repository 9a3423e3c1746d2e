(* Tests for mv_par (pool, fork-join loop, split streams) and for the
   determinism contract of every pool-enabled engine: whatever -j N,
   branching refinement yields the identical partition, and the
   replication and steady-state results the same bits. *)

module Pool = Mv_par.Pool
module Ctmc = Mv_markov.Ctmc
module Lts = Mv_lts.Lts

let with_pool domains f = Pool.scope ~domains f

(* ---- pool ---- *)

let test_pool_runs_all_workers () =
  with_pool 4 (fun pool ->
      Alcotest.(check int) "size" 4 (Pool.size pool);
      let hits = Array.make 4 0 in
      Pool.run pool (fun w -> hits.(w) <- hits.(w) + 1);
      Alcotest.(check (array int)) "each worker once" [| 1; 1; 1; 1 |] hits;
      Pool.run pool (fun w -> hits.(w) <- hits.(w) + 1);
      Alcotest.(check (array int)) "reusable" [| 2; 2; 2; 2 |] hits)

let test_pool_clamps_and_inline () =
  with_pool (-3) (fun pool -> Alcotest.(check int) "clamped" 1 (Pool.size pool));
  with_pool 1 (fun pool ->
      let ran = ref false in
      Pool.run pool (fun w ->
          Alcotest.(check int) "inline worker id" 0 w;
          ran := true);
      Alcotest.(check bool) "ran inline" true !ran)

exception Boom

let test_pool_propagates_exception () =
  with_pool 3 (fun pool ->
      Alcotest.check_raises "worker exception" Boom (fun () ->
          Pool.run pool (fun w -> if w = 1 then raise Boom));
      (* the pool survives a failed job *)
      let count = Atomic.make 0 in
      Pool.run pool (fun _ -> Atomic.incr count);
      Alcotest.(check int) "usable after failure" 3 (Atomic.get count))

(* ---- parallel loops ---- *)

let test_parallel_for_covers_range () =
  List.iter
    (fun domains ->
       with_pool domains (fun pool ->
           let out = Array.make 1000 0 in
           Pool.for_ ~pool ~lo:0 ~hi:1000 (fun i -> out.(i) <- i * i);
           Alcotest.(check (array int))
             (Printf.sprintf "squares at -j %d" domains)
             (Array.init 1000 (fun i -> i * i))
             out))
    [ 1; 2; 4 ]

(* Every index of the range runs exactly once, whichever worker
   claims its chunk: each run bumps an atomic count for its index. *)
let counts_once ~domains ~n =
  with_pool domains (fun pool ->
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Pool.for_ ~pool ~lo:0 ~hi:n (fun i -> Atomic.incr hits.(i));
      Array.for_all (fun hit -> Atomic.get hit = 1) hits)

let test_for_exactly_once () =
  Alcotest.(check bool) "100k indices at -j 4, each once" true
    (counts_once ~domains:4 ~n:100_000)

let for_exactly_once_prop =
  QCheck2.Test.make ~name:"for_: no loss/duplication at any size" ~count:10
    QCheck2.Gen.(pair (int_range 1 4) (int_range 0 20_000))
    (fun (domains, n) -> counts_once ~domains ~n)

let test_for_propagates_exception () =
  with_pool 4 (fun pool ->
      Alcotest.check_raises "body exception" Boom (fun () ->
          Pool.for_ ~pool ~lo:0 ~hi:10_000 (fun i -> if i = 7_777 then raise Boom));
      (* the pool survives a failed loop *)
      let out = Array.make 10_000 0 in
      Pool.for_ ~pool ~lo:0 ~hi:10_000 (fun i -> out.(i) <- i + 1);
      Alcotest.(check bool) "usable after failure" true
        (Array.for_all2 ( = ) out (Array.init 10_000 (fun i -> i + 1))))

(* ---- split streams ---- *)

let test_streams_reproducible () =
  let draw rngs = Array.map (fun rng -> Mv_util.Rng.float rng) rngs in
  let a = draw (Mv_par.Streams.replications ~seed:5L 16) in
  let b = draw (Mv_par.Streams.replications ~seed:5L 16) in
  let c = draw (Mv_par.Streams.replications ~seed:6L 16) in
  Alcotest.(check bool) "same seed, same streams" true (a = b);
  Alcotest.(check bool) "different seed" true (a <> c);
  let distinct =
    Array.for_all Fun.id
      (Array.mapi (fun i x -> i = 0 || x <> a.(i - 1)) a)
  in
  Alcotest.(check bool) "streams differ pairwise" true distinct

(* ---- refinement determinism ---- *)

let tandem_spec () =
  Mv_xstream.Queues.tandem ~arrival:2.0 ~transfer:4.0 ~service:3.0 ~capacity1:3
    ~capacity2:3

let test_partitions_identical () =
  let lts =
    Lts.hide (Mv_calc.State_space.lts (tandem_spec ())) ~gates:[ "push" ]
  in
  let check_partition name (p : Mv_bisim.Partition.t)
      (q : Mv_bisim.Partition.t) =
    Alcotest.(check int) (name ^ " count") p.count q.count;
    Alcotest.(check (array int)) (name ^ " blocks") p.block_of q.block_of
  in
  let branching = Mv_bisim.Branching.partition lts in
  let divbranching =
    Mv_bisim.Branching.partition ~divergence_sensitive:true lts
  in
  List.iter
    (fun domains ->
       with_pool domains (fun pool ->
           check_partition
             (Printf.sprintf "branching -j %d" domains)
             branching
             (Mv_bisim.Branching.partition ~pool lts);
           check_partition
             (Printf.sprintf "divbranching -j %d" domains)
             divbranching
             (Mv_bisim.Branching.partition ~pool ~divergence_sensitive:true
                lts)))
    [ 2; 4 ]

(* ---- solver determinism ---- *)

(* A birth-death chain of [n] states. *)
let chain n =
  let transitions = ref [] in
  for s = 0 to n - 2 do
    transitions :=
      { Ctmc.src = s; rate = 1.0 +. (0.01 *. float_of_int s);
        actions = [ "up" ]; dst = s + 1 }
      :: { Ctmc.src = s + 1; rate = 2.0 +. (0.03 *. float_of_int s);
           actions = []; dst = s }
      :: !transitions
  done;
  Ctmc.make ~nb_states:n ~initial:0 !transitions

let max_abs_diff a b =
  let d = ref 0.0 in
  Array.iteri (fun i x -> d := max !d (abs_float (x -. b.(i)))) a;
  !d

(* The steady-state solve runs no pool: the Gauss-Seidel sweeps and the
   default direct solve agree with each other, and the performance
   pipeline gives the same bits whatever pool its configuration
   carries. *)
let test_steady_state_matches_sequential () =
  let c = chain 100 in
  let reference = Ctmc.steady_state ~method_:Mv_kern.Solver.Gauss_seidel c in
  let total = Array.fold_left ( +. ) 0.0 reference in
  Alcotest.(check bool) "normalized" true (abs_float (total -. 1.0) < 1e-9);
  let direct = Ctmc.steady_state c in
  Alcotest.(check bool) "direct vs gauss-seidel" true
    (max_abs_diff reference direct <= 1e-12);
  let steady pool =
    let perf =
      Mv_core.Flow.Run.performance
        Mv_core.Flow.Config.(default |> with_keep [ "pop" ] |> with_pool pool)
        (tandem_spec ())
    in
    fst (Lazy.force perf.Mv_core.Flow.steady)
  in
  let sequential = steady None in
  List.iter
    (fun domains ->
       Alcotest.(check bool)
         (Printf.sprintf "performance steady state -j %d bitwise" domains)
         true
         (with_pool domains (fun pool -> steady (Some pool)) = sequential))
    [ 2; 4 ]

let test_des_replications_bitwise () =
  let perf =
    Mv_core.Flow.Run.performance
      Mv_core.Flow.Config.(default |> with_keep [ "pop" ])
      (tandem_spec ())
  in
  let imc = perf.Mv_core.Flow.imc in
  let reference =
    Mv_sim.Des.throughput_stats imc ~action:"pop" ~horizon:200.0
      ~replications:20 ~seed:17L
  in
  List.iter
    (fun domains ->
       let stats =
         with_pool domains (fun pool ->
             Mv_sim.Des.throughput_stats ~pool imc ~action:"pop" ~horizon:200.0
               ~replications:20 ~seed:17L)
       in
       Alcotest.(check bool)
         (Printf.sprintf "throughput stats -j %d bitwise" domains)
         true (reference = stats))
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "pool runs every worker" `Quick test_pool_runs_all_workers;
    Alcotest.test_case "pool propagates exceptions" `Quick
      test_pool_propagates_exception;
    Alcotest.test_case "parallel_for covers range" `Quick
      test_parallel_for_covers_range;
    Alcotest.test_case "pool clamps size; size 1 inline" `Quick
      test_pool_clamps_and_inline;
    Alcotest.test_case "for_: 100k indices each run once" `Quick
      test_for_exactly_once;
    QCheck_alcotest.to_alcotest for_exactly_once_prop;
    Alcotest.test_case "for_ propagates a body exception" `Quick
      test_for_propagates_exception;
    Alcotest.test_case "split streams reproducible" `Quick
      test_streams_reproducible;
    Alcotest.test_case "partitions identical at any -j" `Quick
      test_partitions_identical;
    Alcotest.test_case "steady state bitwise at any -j" `Quick
      test_steady_state_matches_sequential;
    Alcotest.test_case "DES replications bitwise at any -j" `Quick
      test_des_replications_bitwise;
  ]
