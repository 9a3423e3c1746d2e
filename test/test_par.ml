(* Tests for mv_par (chunk policies, lock-free deque, pool, loops)
   and for the determinism contract of every pool-enabled engine:
   whatever -j N, refinement yields the identical partition, and the
   solvers the same vectors (bitwise for the matrix/replication
   paths, <= 1e-12 vs the sequential Gauss-Seidel for the steady-state
   solver). *)

module Pool = Mv_par.Pool
module Chunk = Mv_par.Chunk
module Deque = Mv_par.Deque
module Ctmc = Mv_markov.Ctmc
module Lts = Mv_lts.Lts

let with_pool domains f = Pool.scope ~domains f

(* ---- deque ---- *)

let test_deque_lifo_fifo () =
  let d = Deque.create () in
  List.iter (Deque.push d) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "length" 4 (Deque.length d);
  Alcotest.(check (option int)) "pop newest" (Some 4) (Deque.pop d);
  Alcotest.(check (option int)) "steal oldest" (Some 1) (Deque.steal d);
  Alcotest.(check (option int)) "pop" (Some 3) (Deque.pop d);
  Alcotest.(check (option int)) "steal" (Some 2) (Deque.steal d);
  Alcotest.(check (option int)) "empty pop" None (Deque.pop d);
  Alcotest.(check (option int)) "empty steal" None (Deque.steal d)

let test_deque_growth () =
  let d = Deque.create () in
  for i = 0 to 999 do
    Deque.push d i
  done;
  (* drain alternately from both ends *)
  let popped = ref [] in
  for _ = 0 to 499 do
    popped := Option.get (Deque.steal d) :: !popped;
    popped := Option.get (Deque.pop d) :: !popped
  done;
  Alcotest.(check int) "drained" 0 (Deque.length d);
  Alcotest.(check int) "all items" 1000 (List.length !popped);
  Alcotest.(check (list int)) "each once" (List.init 1000 Fun.id)
    (List.sort compare !popped)

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

let test_map_reduce_deterministic () =
  (* a float reduction whose result is order-sensitive: with a Fixed
     chunk policy the boundaries and fold order are pool-size
     independent, so all pool sizes must agree bitwise *)
  let run domains =
    with_pool domains (fun pool ->
        Pool.map_reduce ~chunk:(Chunk.Fixed 1024) ~pool ~lo:1 ~hi:100_001
          ~map:(fun i -> 1.0 /. float_of_int i)
          ~reduce:( +. ) ~init:0.0)
  in
  let h1 = run 1 and h2 = run 2 and h4 = run 4 in
  Alcotest.(check bool) "harmonic j1=j2" true (h1 = h2);
  Alcotest.(check bool) "harmonic j1=j4" true (h1 = h4);
  Alcotest.(check bool) "plausible value" true (abs_float (h1 -. 12.09) < 0.01)

let test_parallel_chunks_partition () =
  with_pool 4 (fun pool ->
      let seen = Array.make 100 0 in
      Pool.chunks ~chunk:(Chunk.Fixed 7) ~pool ~lo:0 ~hi:100 (fun a b ->
          for i = a to b - 1 do
            seen.(i) <- seen.(i) + 1
          done);
      Alcotest.(check (array int)) "each index once" (Array.make 100 1) seen)

(* ---- chunk policies ---- *)

let check_cover name ranges lo hi =
  let pos = ref lo in
  Array.iter
    (fun (a, b) ->
       Alcotest.(check int) (name ^ " contiguous") !pos a;
       Alcotest.(check bool) (name ^ " nonempty") true (b > a);
       pos := b)
    ranges;
  Alcotest.(check int) (name ^ " reaches hi") hi !pos

let test_chunk_policies () =
  check_cover "auto" (Chunk.ranges ~policy:Chunk.Auto ~workers:4 ~lo:0 ~hi:1000)
    0 1000;
  let fixed = Chunk.ranges ~policy:(Chunk.Fixed 7) ~workers:4 ~lo:0 ~hi:100 in
  check_cover "fixed" fixed 0 100;
  Array.iteri
    (fun i (a, b) ->
       if i < Array.length fixed - 1 then
         Alcotest.(check int) "fixed size" 7 (b - a))
    fixed;
  let guided = Chunk.ranges ~policy:Chunk.Guided ~workers:2 ~lo:0 ~hi:10_000 in
  check_cover "guided" guided 0 10_000;
  Array.iteri
    (fun i (a, b) ->
       if i > 0 then begin
         let pa, pb = guided.(i - 1) in
         Alcotest.(check bool) "guided non-increasing" true (b - a <= pb - pa)
       end)
    guided;
  Alcotest.(check (array (pair int int))) "empty range" [||]
    (Chunk.ranges ~policy:Chunk.Auto ~workers:4 ~lo:5 ~hi:5);
  Alcotest.(check bool) "Fixed 0 rejected" true
    (try
       ignore (Chunk.ranges ~policy:(Chunk.Fixed 0) ~workers:1 ~lo:0 ~hi:10);
       false
     with Invalid_argument _ -> true)

let test_pool_scope_and_plan () =
  let r =
    Pool.scope ~chunk:(Chunk.Fixed 5) ~domains:2 (fun pool ->
        Alcotest.(check bool) "policy carried" true
          (Pool.chunk_policy pool = Chunk.Fixed 5);
        let plan = Pool.plan pool ~lo:0 ~hi:23 in
        Alcotest.(check bool) "plan = Chunk.ranges" true
          (plan = Chunk.ranges ~policy:(Chunk.Fixed 5) ~workers:2 ~lo:0 ~hi:23);
        let plan9 = Pool.plan ~chunk:(Chunk.Fixed 9) pool ~lo:0 ~hi:23 in
        Alcotest.(check bool) "per-call override" true
          (plan9 = Chunk.ranges ~policy:(Chunk.Fixed 9) ~workers:2 ~lo:0 ~hi:23);
        42)
  in
  Alcotest.(check int) "scope returns" 42 r

(* ---- deque under real contention ---- *)

(* One owner pushes [0 .. n-1] (popping every eighth push, then
   draining), [nb_stealers] domains steal concurrently. Every element
   must surface exactly once across the owner and the thieves. *)
let steal_race ~n ~nb_stealers =
  let d = Deque.create () in
  let stop = Atomic.make false in
  let stolen = Array.make nb_stealers [] in
  let stealers =
    Array.init nb_stealers (fun k ->
        Domain.spawn (fun () ->
            let acc = ref [] in
            let rec loop () =
              match Deque.steal d with
              | Some x ->
                acc := x :: !acc;
                loop ()
              | None ->
                if not (Atomic.get stop) then begin
                  Domain.cpu_relax ();
                  loop ()
                end
            in
            loop ();
            stolen.(k) <- !acc))
  in
  let popped = ref [] in
  for i = 0 to n - 1 do
    Deque.push d i;
    if i land 7 = 7 then
      match Deque.pop d with
      | Some x -> popped := x :: !popped
      | None -> ()
  done;
  let rec drain () =
    match Deque.pop d with
    | Some x ->
      popped := x :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  Array.iter Domain.join stealers;
  let all = Array.fold_left (fun acc l -> List.rev_append l acc) !popped stolen in
  List.length all = n && List.sort compare all = List.init n Fun.id

let test_deque_steal_stress () =
  Alcotest.(check bool) "100k ops, 3 thieves: no loss, no duplication" true
    (steal_race ~n:100_000 ~nb_stealers:3)

let deque_steal_prop =
  QCheck2.Test.make ~name:"deque: no loss/duplication vs stealers" ~count:10
    QCheck2.Gen.(pair (int_range 1_000 5_000) (int_range 1 3))
    (fun (n, nb_stealers) -> steal_race ~n ~nb_stealers)

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
  let strong = Mv_bisim.Strong.partition lts in
  let branching = Mv_bisim.Branching.partition lts in
  let divbranching =
    Mv_bisim.Branching.partition ~divergence_sensitive:true lts
  in
  List.iter
    (fun domains ->
       with_pool domains (fun pool ->
           check_partition
             (Printf.sprintf "strong -j %d" domains)
             strong
             (Mv_bisim.Strong.partition ~pool lts);
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

(* A birth-death chain big enough (> 64 states) to engage the parallel
   mat-vec path. *)
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

(* Both the colored Gauss-Seidel sweeps and the default direct solve
   give the same bits at every pool size, and agree with each other. *)
let test_steady_state_matches_sequential () =
  let c = chain 100 in
  let solve ?pool method_ = Ctmc.steady_state ?pool ?method_ c in
  let gs = Some Mv_kern.Solver.Gauss_seidel in
  let reference = solve gs in
  let total = Array.fold_left ( +. ) 0.0 reference in
  Alcotest.(check bool) "normalized" true (abs_float (total -. 1.0) < 1e-9);
  let direct = solve None in
  Alcotest.(check bool) "direct vs gauss-seidel" true
    (max_abs_diff reference direct <= 1e-12);
  List.iter
    (fun domains ->
       with_pool domains (fun pool ->
           Alcotest.(check bool)
             (Printf.sprintf "gauss-seidel -j %d bitwise" domains)
             true
             (solve ~pool gs = reference);
           Alcotest.(check bool)
             (Printf.sprintf "direct -j %d bitwise" domains)
             true
             (solve ~pool None = direct)))
    [ 2; 4 ]

let test_transient_bitwise () =
  let c = chain 100 in
  let reference = Ctmc.transient c ~horizon:0.7 in
  List.iter
    (fun domains ->
       let dist = with_pool domains (fun pool -> Ctmc.transient ~pool c ~horizon:0.7) in
       Alcotest.(check bool)
         (Printf.sprintf "transient -j %d bitwise" domains)
         true (reference = dist))
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
    Alcotest.test_case "deque lifo/fifo ends" `Quick test_deque_lifo_fifo;
    Alcotest.test_case "deque growth + drain" `Quick test_deque_growth;
    Alcotest.test_case "pool runs every worker" `Quick test_pool_runs_all_workers;
    Alcotest.test_case "pool clamps size; size 1 inline" `Quick
      test_pool_clamps_and_inline;
    Alcotest.test_case "pool propagates exceptions" `Quick
      test_pool_propagates_exception;
    Alcotest.test_case "parallel_for covers range" `Quick
      test_parallel_for_covers_range;
    Alcotest.test_case "map_reduce pool-size independent" `Quick
      test_map_reduce_deterministic;
    Alcotest.test_case "parallel_chunks partitions range" `Quick
      test_parallel_chunks_partition;
    Alcotest.test_case "chunk policies cover ranges" `Quick test_chunk_policies;
    Alcotest.test_case "pool scope + plan" `Quick test_pool_scope_and_plan;
    Alcotest.test_case "deque steal stress (100k x 3 thieves)" `Quick
      test_deque_steal_stress;
    QCheck_alcotest.to_alcotest deque_steal_prop;
    Alcotest.test_case "split streams reproducible" `Quick
      test_streams_reproducible;
    Alcotest.test_case "partitions identical at any -j" `Quick
      test_partitions_identical;
    Alcotest.test_case "steady state bitwise at any -j" `Quick
      test_steady_state_matches_sequential;
    Alcotest.test_case "transient bitwise at any -j" `Quick
      test_transient_bitwise;
    Alcotest.test_case "DES replications bitwise at any -j" `Quick
      test_des_replications_bitwise;
  ]
