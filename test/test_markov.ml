(* Tests for mv_markov: sparse matrices, Poisson weights, DTMC and
   CTMC solvers, validated against closed-form birth-death results. *)

module Sparse = Mv_markov.Sparse
module Poisson = Mv_markov.Poisson
module Dtmc = Mv_markov.Dtmc
module Ctmc = Mv_markov.Ctmc
module Linalg = Mv_oracle.Linalg
module Solver = Mv_kern.Solver

let close ?(eps = 1e-8) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.10g, got %.10g" msg expected actual)
    true
    (abs_float (expected -. actual) <= eps)

let test_sparse_basics () =
  let m =
    Sparse.of_triples ~rows:3 ~cols:3
      [ (0, 1, 2.0); (0, 1, 3.0); (1, 2, 1.0); (2, 0, 4.0) ]
  in
  Alcotest.(check int) "entries merged" 3 (Sparse.nb_entries m);
  close "get merged" 5.0 (Sparse.get m 0 1);
  close "get absent" 0.0 (Sparse.get m 1 1);
  let sums = Sparse.row_sums m in
  close "row sum" 5.0 sums.(0);
  let y = Sparse.mul_left m [| 1.0; 1.0; 1.0 |] in
  close "mul_left col0" 4.0 y.(0);
  close "mul_left col1" 5.0 y.(1);
  let z = Sparse.mul_right m [| 1.0; 1.0; 1.0 |] in
  close "mul_right row0" 5.0 z.(0);
  let t = Sparse.transpose m in
  close "transpose" 5.0 (Sparse.get t 1 0);
  let s = Sparse.scale m 2.0 in
  close "scale" 10.0 (Sparse.get s 0 1)

let test_sparse_validation () =
  Alcotest.check_raises "range"
    (Invalid_argument "Sparse.of_triples: index out of range") (fun () ->
      ignore (Sparse.of_triples ~rows:1 ~cols:1 [ (0, 3, 1.0) ]))

let test_poisson_point_mass () =
  let w = Poisson.weights ~q:0.0 ~epsilon:1e-10 in
  Alcotest.(check int) "left" 0 w.Poisson.left;
  close "point mass" 1.0 w.Poisson.weights.(0)

let test_poisson_sums_to_one () =
  List.iter
    (fun q ->
       let w = Poisson.weights ~q ~epsilon:1e-10 in
       let total = Array.fold_left ( +. ) 0.0 w.Poisson.weights in
       close (Printf.sprintf "q=%g sums" q) 1.0 total;
       (* compare a few entries with the direct formula for small q *)
       if q <= 30.0 then begin
         let direct k =
           let rec logfact n acc =
             if n <= 1 then acc else logfact (n - 1) (acc +. log (float_of_int n))
           in
           exp ((float_of_int k *. log q) -. q -. logfact k 0.0)
         in
         for k = w.Poisson.left to min w.Poisson.right (w.Poisson.left + 5) do
           close ~eps:1e-9
             (Printf.sprintf "q=%g k=%d" q k)
             (direct k)
             w.Poisson.weights.(k - w.Poisson.left)
         done
       end)
    [ 0.5; 4.0; 25.0; 400.0; 10_000.0 ]

let test_dtmc_two_state () =
  (* p(0->1)=0.3, p(1->0)=0.6: steady = (2/3, 1/3) *)
  let chain =
    Dtmc.make ~nb_states:2 ~initial:0
      [ (0, 0, 0.7); (0, 1, 0.3); (1, 0, 0.6); (1, 1, 0.4) ]
  in
  let pi = Dtmc.steady_state chain in
  close "pi0" (2.0 /. 3.0) pi.(0);
  close "pi1" (1.0 /. 3.0) pi.(1);
  let d1 = Dtmc.distribution_after chain 1 in
  close "one step" 0.3 d1.(1)

let test_dtmc_validation () =
  (try
     ignore (Dtmc.make ~nb_states:1 ~initial:0 [ (0, 0, 0.5) ]);
     Alcotest.fail "expected row-sum failure"
   with Invalid_argument _ -> ());
  (* zero rows become absorbing *)
  let chain = Dtmc.make ~nb_states:2 ~initial:0 [ (0, 1, 1.0) ] in
  let d = Dtmc.distribution_after chain 5 in
  close "absorbed" 1.0 d.(1)

(* Birth-death CTMC = M/M/1/K; closed form is in Mv_xstream.Analytic. *)
let birth_death ~arrival ~service ~k =
  let transitions = ref [] in
  for m = 0 to k - 1 do
    transitions :=
      { Ctmc.src = m; rate = arrival; actions = [ "arrive" ]; dst = m + 1 }
      :: !transitions
  done;
  for m = 1 to k do
    transitions :=
      { Ctmc.src = m; rate = service; actions = [ "serve" ]; dst = m - 1 }
      :: !transitions
  done;
  Ctmc.make ~nb_states:(k + 1) ~initial:0 !transitions

let test_ctmc_steady_birth_death () =
  let arrival = 2.0 and service = 3.0 and k = 5 in
  let chain = birth_death ~arrival ~service ~k in
  let pi = Ctmc.steady_state chain in
  let expected = Mv_xstream.Analytic.pi ~arrival ~service ~k in
  Array.iteri (fun m p -> close ~eps:1e-9 (Printf.sprintf "pi %d" m) expected.(m) p) pi;
  close ~eps:1e-9 "throughput(serve)"
    (Mv_xstream.Analytic.throughput ~arrival ~service ~k)
    (Ctmc.throughput chain ~pi ~action:"serve");
  close ~eps:1e-9 "mean jobs"
    (Mv_xstream.Analytic.mean_jobs ~arrival ~service ~k)
    (Ctmc.expected_reward chain ~pi (fun s -> float_of_int s))

let test_ctmc_self_loop_throughput () =
  (* a self-loop does not change the distribution but counts in the
     throughput of its action *)
  let chain =
    Ctmc.make ~nb_states:2 ~initial:0
      [
        { Ctmc.src = 0; rate = 1.0; actions = []; dst = 1 };
        { Ctmc.src = 1; rate = 1.0; actions = []; dst = 0 };
        { Ctmc.src = 0; rate = 5.0; actions = [ "tick" ]; dst = 0 };
      ]
  in
  let pi = Ctmc.steady_state chain in
  close "balanced" 0.5 pi.(0);
  close "self-loop throughput" 2.5 (Ctmc.throughput chain ~pi ~action:"tick")

let test_ctmc_bsccs_and_reducible_steady () =
  (* 0 -> 1 (absorbing) at rate 1, 0 -> 2 (absorbing) at rate 3:
     absorption probabilities 1/4 and 3/4 *)
  let chain =
    Ctmc.make ~nb_states:3 ~initial:0
      [
        { Ctmc.src = 0; rate = 1.0; actions = []; dst = 1 };
        { Ctmc.src = 0; rate = 3.0; actions = []; dst = 2 };
      ]
  in
  let bsccs = List.sort compare (Ctmc.bsccs chain) in
  Alcotest.(check (list (list int))) "bsccs" [ [ 1 ]; [ 2 ] ] bsccs;
  Alcotest.(check (list int)) "absorbing" [ 1; 2 ] (Ctmc.absorbing_states chain);
  let pi = Ctmc.steady_state chain in
  close ~eps:1e-9 "absorb 1" 0.25 pi.(1);
  close ~eps:1e-9 "absorb 2" 0.75 pi.(2);
  close ~eps:1e-9 "transient mass" 0.0 pi.(0)

(* Two BSCCs reached through a slow leak: 0 <-> 1 at rate 1, then
   0 -> 2 and 1 -> 3 at rate 1e-9. By symmetry the answer is 1/2 on
   states 2 and 3, but the absorption sweeps move ~1e-9 of mass each,
   so within the sweep budget they cannot reach it. The solve must then
   say so instead of reporting a converged vector that sums to 4e-4. *)
let test_slow_absorption_flagged () =
  let tr src rate dst = { Ctmc.src; rate; actions = []; dst } in
  let chain =
    Ctmc.make ~nb_states:4 ~initial:0
      [ tr 0 1.0 1; tr 1 1.0 0; tr 0 1e-9 2; tr 1 1e-9 3 ]
  in
  let pi, stats = Ctmc.steady_state_stats chain in
  let correct =
    Float.abs (pi.(2) -. 0.5) < 1e-6 && Float.abs (pi.(3) -. 0.5) < 1e-6
  in
  Alcotest.(check bool) "correct or flagged not converged" true
    (correct || not stats.Mv_markov.Solver_stats.converged);
  Alcotest.(check bool) "absorption sweeps counted" true
    (stats.Mv_markov.Solver_stats.iterations > 0);
  (* the caller's budget reaches the absorption solve: 10 sweeps for
     each of the two BSCCs *)
  let _, capped = Ctmc.steady_state_stats ~max_iterations:10 chain in
  Alcotest.(check int) "sweep budget honoured" (2 * 10)
    capped.Mv_markov.Solver_stats.iterations;
  Alcotest.(check bool) "capped solve not converged" false
    capped.Mv_markov.Solver_stats.converged

let test_ctmc_transient () =
  (* two-state: P(still in 0 at t) = exp(-lambda t) *)
  let lambda = 2.0 in
  let chain =
    Ctmc.make ~nb_states:2 ~initial:0
      [ { Ctmc.src = 0; rate = lambda; actions = []; dst = 1 } ]
  in
  List.iter
    (fun t ->
       let d = Ctmc.transient chain ~horizon:t in
       close ~eps:1e-8
         (Printf.sprintf "exp decay t=%g" t)
         (exp (-.lambda *. t))
         d.(0);
       close ~eps:1e-8 "mass" 1.0 (d.(0) +. d.(1)))
    [ 0.0; 0.1; 1.0; 5.0 ];
  (* uniformization on a chain with a large rate spread *)
  let chain2 =
    Ctmc.make ~nb_states:3 ~initial:0
      [
        { Ctmc.src = 0; rate = 100.0; actions = []; dst = 1 };
        { Ctmc.src = 1; rate = 0.1; actions = []; dst = 2 };
      ]
  in
  let d = Ctmc.transient chain2 ~horizon:50.0 in
  close ~eps:1e-6 "two-phase absorption"
    (1.0
     -. ((100.0 /. (100.0 -. 0.1)) *. exp (-0.1 *. 50.0))
     -. ((0.1 /. (0.1 -. 100.0)) *. exp (-100.0 *. 50.0)))
    d.(2)

let test_ctmc_mean_first_passage () =
  (* Erlang-3 chain: mean passage = 3 / rate *)
  let rate = 2.0 in
  let chain =
    Ctmc.make ~nb_states:4 ~initial:0
      (List.init 3 (fun i -> { Ctmc.src = i; rate; actions = []; dst = i + 1 }))
  in
  let h = Ctmc.mean_first_passage chain ~targets:[ 3 ] in
  close ~eps:1e-9 "erlang mean" 1.5 h.(0);
  close "target zero" 0.0 h.(3);
  (* unreachable target *)
  let h2 = Ctmc.mean_first_passage chain ~targets:[ 0 ] in
  close "already there" 0.0 h2.(0);
  Alcotest.(check bool) "unreachable is infinite" true (h2.(3) = infinity)

let test_ctmc_mean_first_passage_with_cycle () =
  (* M/M/1/2 from empty to full: E[T] for birth-death; closed form
     by first-step analysis: h0 = 1/l + h1; h1 = 1/(l+m) + m/(l+m) h0 *)
  let l = 1.0 and m = 2.0 in
  let chain = birth_death ~arrival:l ~service:m ~k:2 in
  let h = Ctmc.mean_first_passage chain ~targets:[ 2 ] in
  (* solve: h1 = 1/(l+m) + (m/(l+m)) h0, h0 = 1/l + h1 *)
  let h0 =
    ((1.0 /. (l +. m)) +. (1.0 /. l)) /. (1.0 -. (m /. (l +. m)))
  in
  close ~eps:1e-8 "h0" h0 h.(0)

let test_ctmc_accumulated_reward () =
  (* Erlang-2 chain at rate 2, reward 3 in state 0 and 5 in state 1:
     expected accumulation = 3/2 + 5/2 *)
  let chain =
    Ctmc.make ~nb_states:3 ~initial:0
      [
        { Ctmc.src = 0; rate = 2.0; actions = []; dst = 1 };
        { Ctmc.src = 1; rate = 2.0; actions = []; dst = 2 };
      ]
  in
  let reward = function 0 -> 3.0 | 1 -> 5.0 | _ -> 100.0 in
  let g = Ctmc.accumulated_reward chain ~reward ~targets:[ 2 ] in
  close ~eps:1e-9 "accumulated" 4.0 g.(0);
  close "target" 0.0 g.(2);
  (* consistency: unit reward equals mean first passage *)
  let h = Ctmc.mean_first_passage chain ~targets:[ 2 ] in
  let u = Ctmc.accumulated_reward chain ~reward:(fun _ -> 1.0) ~targets:[ 2 ] in
  close ~eps:1e-12 "unit reward = passage time" h.(0) u.(0)

let test_ctmc_reach_probability () =
  let rate = 2.0 in
  let chain =
    Ctmc.make ~nb_states:2 ~initial:0
      [ { Ctmc.src = 0; rate; actions = []; dst = 1 } ]
  in
  close ~eps:1e-8 "cdf" (1.0 -. exp (-.rate *. 0.7))
    (Ctmc.reach_probability_by chain ~targets:[ 1 ] ~horizon:0.7)

let test_ctmc_embedded () =
  let chain = birth_death ~arrival:1.0 ~service:3.0 ~k:2 in
  let e = Ctmc.embedded chain in
  let m = Dtmc.matrix e in
  close "jump up from 1" 0.25 (Sparse.get m 1 2);
  close "jump down from 1" 0.75 (Sparse.get m 1 0)

let test_ctmc_validation () =
  Alcotest.check_raises "rate" (Invalid_argument "Ctmc.make: rate must be positive")
    (fun () ->
       ignore
         (Ctmc.make ~nb_states:1 ~initial:0
            [ { Ctmc.src = 0; rate = 0.0; actions = []; dst = 0 } ]))

let test_sparse_shapes () =
  let m = Sparse.of_triples ~rows:2 ~cols:3 [ (0, 2, 1.0) ] in
  Alcotest.(check int) "rows" 2 (Sparse.rows m);
  Alcotest.(check int) "cols" 3 (Sparse.cols m);
  Alcotest.check_raises "mul_left shape" (Invalid_argument "Sparse.mul_left")
    (fun () -> ignore (Sparse.mul_left m [| 1.0; 2.0; 3.0 |]));
  Alcotest.check_raises "mul_right shape" (Invalid_argument "Sparse.mul_right")
    (fun () -> ignore (Sparse.mul_right m [| 1.0 |]))

let test_transient_edge_cases () =
  let chain =
    Ctmc.make ~nb_states:2 ~initial:0
      [ { Ctmc.src = 0; rate = 1.0; actions = []; dst = 1 } ]
  in
  (* t = 0 is the point mass *)
  let d0 = Ctmc.transient chain ~horizon:0.0 in
  close "point mass" 1.0 d0.(0);
  Alcotest.check_raises "negative horizon"
    (Invalid_argument "Ctmc.transient: negative horizon") (fun () ->
      ignore (Ctmc.transient chain ~horizon:(-1.0)));
  (* a chain with no transitions stays where it is *)
  let frozen = Ctmc.make ~nb_states:2 ~initial:1 [] in
  let d = Ctmc.transient frozen ~horizon:5.0 in
  close "frozen" 1.0 d.(1)

let test_throughputs_listing () =
  let chain =
    Ctmc.make ~nb_states:2 ~initial:0
      [
        { Ctmc.src = 0; rate = 2.0; actions = [ "up"; "both" ]; dst = 1 };
        { Ctmc.src = 1; rate = 2.0; actions = [ "down"; "both" ]; dst = 0 };
      ]
  in
  let pi = Ctmc.steady_state chain in
  let listed = Ctmc.throughputs chain ~pi in
  Alcotest.(check int) "three actions" 3 (List.length listed);
  close "both counts twice" 2.0 (List.assoc "both" listed);
  close "up" 1.0 (List.assoc "up" listed)

let test_linalg_solve () =
  let a = [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Linalg.solve a [| 5.0; 10.0 |] in
  close ~eps:1e-12 "x0" 1.0 x.(0);
  close ~eps:1e-12 "x1" 3.0 x.(1);
  (* input not modified *)
  close "a intact" 2.0 a.(0).(0);
  Alcotest.check_raises "singular" Linalg.Singular (fun () ->
      ignore (Linalg.solve [| [| 1.0; 1.0 |]; [| 2.0; 2.0 |] |] [| 1.0; 1.0 |]))

let test_linalg_steady_exact () =
  let chain = birth_death ~arrival:2.0 ~service:3.0 ~k:4 in
  let exact = Linalg.steady_state_exact chain in
  let analytic = Mv_xstream.Analytic.pi ~arrival:2.0 ~service:3.0 ~k:4 in
  Array.iteri
    (fun m p -> close ~eps:1e-12 (Printf.sprintf "exact pi %d" m) analytic.(m) p)
    exact;
  (* reducible chains are rejected *)
  let reducible =
    Ctmc.make ~nb_states:2 ~initial:0
      [ { Ctmc.src = 0; rate = 1.0; actions = []; dst = 1 } ]
  in
  try
    ignore (Linalg.steady_state_exact reducible);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* Property: Gauss-Seidel agrees with the exact LU oracle on random
   irreducible chains. *)
let gs_vs_lu_prop =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 12 in
      (* a random cycle guarantees irreducibility; extra random edges
         on top *)
      let* cycle_rates = list_repeat n (float_range 0.1 5.0) in
      let* extra =
        list_size (int_bound 20)
          (triple (int_bound (n - 1)) (int_bound (n - 1)) (float_range 0.1 5.0))
      in
      return (n, cycle_rates, extra))
  in
  QCheck2.Test.make ~name:"gauss-seidel steady state = LU oracle" ~count:40 gen
    (fun (n, cycle_rates, extra) ->
       let transitions =
         List.mapi
           (fun i r -> { Ctmc.src = i; rate = r; actions = []; dst = (i + 1) mod n })
           cycle_rates
         @ List.filter_map
             (fun (s, d, r) ->
                if s = d then None
                else Some { Ctmc.src = s; rate = r; actions = []; dst = d })
             extra
       in
       let chain = Ctmc.make ~nb_states:n ~initial:0 transitions in
       let gs = Ctmc.steady_state ~method_:Solver.Gauss_seidel chain in
       let lu = Linalg.steady_state_exact chain in
       Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-7) gs lu)

(* Property: the default solve, which eliminates chains this small,
   agrees with the LU oracle within 1e-12. Every chain has a ring
   0 -> 1 -> ... -> n-1 -> 0, so it is irreducible and, in BFS order,
   its lower band is as wide as the chain; some also get the reverse
   ring, and all get random chords. Rates are log-uniform over
   1e-6..1e3. *)
let direct_vs_lu_prop =
  let gen =
    QCheck2.Gen.(
      let rate = map (fun e -> 10.0 ** e) (float_range (-6.0) 3.0) in
      let* n = int_range 2 30 in
      let* ring = list_repeat n rate in
      let* back = option (list_repeat n rate) in
      let* chords =
        list_size (int_bound (2 * n))
          (triple (int_bound (n - 1)) (int_bound (n - 1)) rate)
      in
      return (n, ring, back, chords))
  in
  let print (n, ring, back, chords) =
    let rates l = String.concat "; " (List.map (Printf.sprintf "%h") l) in
    Printf.sprintf "n=%d ring=[%s] back=[%s] chords=[%s]" n (rates ring)
      (rates (Option.value back ~default:[]))
      (String.concat "; "
         (List.map (fun (s, d, r) -> Printf.sprintf "%d->%d %h" s d r) chords))
  in
  QCheck2.Test.make ~name:"direct steady state = LU oracle within 1e-12"
    ~count:200 ~print gen
    (fun (n, ring, back, chords) ->
       let tr src rate dst = { Ctmc.src; rate; actions = []; dst } in
       let transitions =
         List.mapi (fun i r -> tr i r ((i + 1) mod n)) ring
         @ List.mapi (fun i r -> tr ((i + 1) mod n) r i)
             (Option.value back ~default:[])
         @ List.filter_map
             (fun (s, d, r) -> if s = d then None else Some (tr s r d))
             chords
       in
       let chain = Ctmc.make ~nb_states:n ~initial:0 transitions in
       let direct, stats = Ctmc.steady_state_stats chain in
       let lu = Linalg.steady_state_exact chain in
       stats.Mv_markov.Solver_stats.iterations = 0
       && Array.for_all2 (fun a b -> abs_float (a -. b) <= 1e-12) direct lu)

(* Property: steady state of random irreducible birth-death chains is a
   distribution satisfying detailed balance. *)
let steady_prop =
  let gen =
    QCheck2.Gen.(
      triple (float_range 0.1 5.0) (float_range 0.1 5.0) (int_range 1 8))
  in
  QCheck2.Test.make ~name:"ctmc steady state is balanced distribution" ~count:50
    gen
    (fun (arrival, service, k) ->
       let chain = birth_death ~arrival ~service ~k in
       let pi = Ctmc.steady_state chain in
       let total = Array.fold_left ( +. ) 0.0 pi in
       let balanced = ref true in
       for m = 0 to k - 1 do
         if abs_float ((pi.(m) *. arrival) -. (pi.(m + 1) *. service)) > 1e-8
         then balanced := false
       done;
       abs_float (total -. 1.0) < 1e-9 && !balanced)

let suite =
  [
    Alcotest.test_case "sparse basics" `Quick test_sparse_basics;
    Alcotest.test_case "sparse validation" `Quick test_sparse_validation;
    Alcotest.test_case "poisson point mass" `Quick test_poisson_point_mass;
    Alcotest.test_case "poisson weights" `Quick test_poisson_sums_to_one;
    Alcotest.test_case "dtmc two-state steady" `Quick test_dtmc_two_state;
    Alcotest.test_case "dtmc validation/absorbing" `Quick test_dtmc_validation;
    Alcotest.test_case "ctmc steady vs closed form" `Quick
      test_ctmc_steady_birth_death;
    Alcotest.test_case "ctmc self-loop throughput" `Quick
      test_ctmc_self_loop_throughput;
    Alcotest.test_case "ctmc bsccs + reducible steady" `Quick
      test_ctmc_bsccs_and_reducible_steady;
    Alcotest.test_case "ctmc transient" `Quick test_ctmc_transient;
    Alcotest.test_case "ctmc mean first passage" `Quick
      test_ctmc_mean_first_passage;
    Alcotest.test_case "ctmc first passage with cycles" `Quick
      test_ctmc_mean_first_passage_with_cycle;
    Alcotest.test_case "ctmc accumulated reward" `Quick
      test_ctmc_accumulated_reward;
    Alcotest.test_case "ctmc reach probability" `Quick test_ctmc_reach_probability;
    Alcotest.test_case "ctmc embedded chain" `Quick test_ctmc_embedded;
    Alcotest.test_case "ctmc validation" `Quick test_ctmc_validation;
    QCheck_alcotest.to_alcotest steady_prop;
    Alcotest.test_case "sparse shapes" `Quick test_sparse_shapes;
    Alcotest.test_case "transient edge cases" `Quick test_transient_edge_cases;
    Alcotest.test_case "throughput listing" `Quick test_throughputs_listing;
    Alcotest.test_case "linalg dense solve" `Quick test_linalg_solve;
    Alcotest.test_case "linalg exact steady state" `Quick
      test_linalg_steady_exact;
    QCheck_alcotest.to_alcotest gs_vs_lu_prop;
    QCheck_alcotest.to_alcotest direct_vs_lu_prop;
    Alcotest.test_case "slow absorption: correct or flagged" `Quick
      test_slow_absorption_flagged;
  ]
