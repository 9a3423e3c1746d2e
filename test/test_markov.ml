(* Tests for mv_markov: Poisson weights and the CTMC solves, validated
   against closed forms and the dense LU oracle. *)

module Poisson = Mv_markov.Poisson
module Ctmc = Mv_markov.Ctmc
module Solver_stats = Mv_markov.Solver_stats
module Linalg = Mv_oracle.Linalg
module Solver = Mv_kern.Solver

let close ?(eps = 1e-8) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.10g, got %.10g" msg expected actual)
    true
    (abs_float (expected -. actual) <= eps)

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

(* Birth-death CTMC = M/M/1/K; closed form is in Mv_xstream.Analytic. *)
let birth_death ?(initial = 0) ~arrival ~service ~k () =
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
  Ctmc.make ~nb_states:(k + 1) ~initial !transitions

let test_ctmc_steady_birth_death () =
  let arrival = 2.0 and service = 3.0 and k = 5 in
  let chain = birth_death ~arrival ~service ~k () in
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
   0 -> 2 and 1 -> 3 at rate e = 1e-9. First-step analysis gives
   P(2) = (1 + e) / (2 + e) and P(3) = 1 / (2 + e), each 1/2 within
   2.5e-10. Each sweep of the absorption equations moves ~1e-9 of
   mass, so a solver that stops on the change per sweep would call a
   vector summing to 1e-9 converged under a 1e-8 tolerance. *)
let test_slow_absorption_flagged () =
  let tr src rate dst = { Ctmc.src; rate; actions = []; dst } in
  let e = 1e-9 in
  let chain =
    Ctmc.make ~nb_states:4 ~initial:0
      [ tr 0 1.0 1; tr 1 1.0 0; tr 0 e 2; tr 1 e 3 ]
  in
  List.iter
    (fun tolerance ->
       let pi, stats = Ctmc.steady_state_stats ~tolerance chain in
       let at = Printf.sprintf "%s at tolerance %g" in
       close ~eps:1e-12 (at "P(2)" tolerance) ((1.0 +. e) /. (2.0 +. e)) pi.(2);
       close ~eps:1e-12 (at "P(3)" tolerance) (1.0 /. (2.0 +. e)) pi.(3);
       close ~eps:1e-9 (at "about 1/2" tolerance) 0.5 pi.(2);
       Alcotest.(check bool) (at "converged" tolerance) true
         stats.Solver_stats.converged)
    [ 1e-13; 1e-8 ]

(* 0 <-> 1 at rate 1 and 0 -> 2 at 1e-9: the first passage from 0 to 2
   takes 2 / 1e-9 = 2e9 on average, which a solver that stops on the
   change per sweep underestimates by orders of magnitude. *)
let test_slow_leak_passage () =
  let tr src rate dst = { Ctmc.src; rate; actions = []; dst } in
  let chain =
    Ctmc.make ~nb_states:3 ~initial:0 [ tr 0 1.0 1; tr 1 1.0 0; tr 0 1e-9 2 ]
  in
  let time, stats = Ctmc.mean_first_passage chain ~targets:[ 2 ] in
  close ~eps:(1e-9 *. 2e9) "mean first passage" 2e9 time;
  Alcotest.(check bool) "converged" true stats.Solver_stats.converged;
  Alcotest.(check int) "eliminated" 0 stats.Solver_stats.iterations

(* A ring 0 -> 1 -> ... -> n-1 -> 0 at rate 1 in which state [at]
   (by default the last) passes on at rate 1 - leak and leaks into the
   target n at rate leak. Each visit to [at] ends in the target with
   probability leak, so [at] and the states before it are visited
   1 / leak times on average and the states after it once fewer: the
   mean first passage from 0 is n / leak - (n - 1 - at). *)
let leaky_ring ?at ~n ~leak () =
  let at = Option.value at ~default:(n - 1) in
  let tr src rate dst = { Ctmc.src; rate; actions = []; dst } in
  Ctmc.make ~nb_states:(n + 1) ~initial:0
    (tr at leak n
     :: List.init n (fun s ->
         tr s (if s = at then 1.0 -. leak else 1.0) ((s + 1) mod n)))

let test_ring_passage () =
  let n = 2_000 and leak = 1e-3 in
  let time, stats =
    Ctmc.mean_first_passage (leaky_ring ~n ~leak ()) ~targets:[ n ]
  in
  close ~eps:(1e-9 *. 2e6) "n / leak" 2e6 time;
  Alcotest.(check bool) "converged" true stats.Solver_stats.converged;
  Alcotest.(check int) "eliminated" 0 stats.Solver_stats.iterations

(* In BFS order a ring of 2,100 states has a lower band of 2,099, which
   puts its renewal chain beyond the direct solve's band cap, so the
   sweeps run, under the caller's budget. The leak sits halfway round,
   so the visits are not uniform and one sweep cannot reach them. *)
let test_ring_passage_budget () =
  let n = 2_100 in
  let _, stats =
    Ctmc.mean_first_passage ~max_iterations:1
      (leaky_ring ~at:(n / 2) ~n ~leak:1e-3 ())
      ~targets:[ n ]
  in
  Alcotest.(check int) "sweeps" 1 stats.Solver_stats.iterations;
  Alcotest.(check bool) "not converged" false stats.Solver_stats.converged

(* The same ring leaking 0.1 halfway round: its exact passage is
   21,000 - 1,049 = 19,951. A sweep in BFS order carries a correction
   all the way round the ring, so a few sweeps settle it. *)
let test_ring_passage_converges () =
  let n = 2_100 and at = 1_050 in
  let time, stats =
    Ctmc.mean_first_passage (leaky_ring ~at ~n ~leak:0.1 ()) ~targets:[ n ]
  in
  close ~eps:(1e-9 *. 19_951.0) "n / leak - (n - 1 - at)" 19_951.0 time;
  Alcotest.(check bool) "swept" true (stats.Solver_stats.iterations > 0);
  Alcotest.(check bool) "converged" true stats.Solver_stats.converged

(* Rings past the direct caps (more than 2,050 states), any leak
   position and rate: the sweeps converge to the exact passage. *)
let ring_passage_prop =
  QCheck2.Test.make ~name:"ring passage past the direct caps = exact"
    ~count:20
    ~print:(fun (n, at, leak) -> Printf.sprintf "n=%d at=%d leak=%h" n at leak)
    QCheck2.Gen.(
      let* n = int_range 2_051 4_000 in
      let* at = int_bound (n - 1) in
      let* leak = float_range 1e-3 0.9 in
      return (n, at, leak))
    (fun (n, at, leak) ->
       let time, stats =
         Ctmc.mean_first_passage (leaky_ring ~at ~n ~leak ()) ~targets:[ n ]
       in
       let exact = (float_of_int n /. leak) -. float_of_int (n - 1 - at) in
       stats.Solver_stats.iterations > 0
       && stats.Solver_stats.converged
       && abs_float (time -. exact) <= 1e-9 *. exact)

(* A 2,100-state ring whose every state also leaks into the target at
   rate 0.01: the time to the target is exponential at that rate
   wherever the run is, so the mean first passage is 100. The ring's
   band puts it beyond the direct caps; the sweeps must stop on an
   answer within 1e-9 of it, not just on a small change per sweep. *)
let test_ring_passage_swept () =
  let n = 2_100 and leak = 0.01 in
  let tr src rate dst = { Ctmc.src; rate; actions = []; dst } in
  let chain =
    Ctmc.make ~nb_states:(n + 1) ~initial:0
      (List.init n (fun s -> tr s 1.0 ((s + 1) mod n))
       @ List.init n (fun s -> tr s leak n))
  in
  let time, stats = Ctmc.mean_first_passage chain ~targets:[ n ] in
  close ~eps:(1e-9 *. 100.0) "1 / leak" 100.0 time;
  Alcotest.(check bool) "swept" true (stats.Solver_stats.iterations > 0);
  Alcotest.(check bool) "converged" true stats.Solver_stats.converged

(* Passage 0 -> k of a birth-death chain with arrival 2 > service 1:
   only state k - 1 enters the target, far from the initial state in
   BFS order, but the renewal chain's node is a border column, so the
   band stays 1 wide and 3,001 states are eliminated. The mean time to
   climb from m to m + 1 is t_m = (1 + t_(m-1)) / 2 with t_0 = 1/2, so
   the passage is k - 1 + 2^-k. *)
let test_birth_death_passage () =
  let k = 3_000 in
  let chain = birth_death ~arrival:2.0 ~service:1.0 ~k () in
  let time, stats = Ctmc.mean_first_passage chain ~targets:[ k ] in
  let exact = float_of_int (k - 1) in
  close ~eps:(1e-9 *. exact) "k - 1" exact time;
  Alcotest.(check bool) "converged" true stats.Solver_stats.converged;
  Alcotest.(check int) "eliminated" 0 stats.Solver_stats.iterations

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
  let passage ~initial targets =
    let chain =
      Ctmc.make ~nb_states:4 ~initial
        (List.init 3 (fun i -> { Ctmc.src = i; rate; actions = []; dst = i + 1 }))
    in
    fst (Ctmc.mean_first_passage chain ~targets)
  in
  close ~eps:1e-9 "erlang mean" 1.5 (passage ~initial:0 [ 3 ]);
  close "target zero" 0.0 (passage ~initial:3 [ 3 ]);
  close "already there" 0.0 (passage ~initial:0 [ 0 ]);
  Alcotest.(check bool) "unreachable is infinite" true
    (passage ~initial:3 [ 0 ] = infinity);
  Alcotest.(check bool) "no targets is infinite" true
    (passage ~initial:0 [] = infinity)

let test_ctmc_mean_first_passage_with_cycle () =
  (* M/M/1/2 from empty to full: E[T] for birth-death; closed form
     by first-step analysis: h0 = 1/l + h1; h1 = 1/(l+m) + m/(l+m) h0 *)
  let l = 1.0 and m = 2.0 in
  let chain = birth_death ~arrival:l ~service:m ~k:2 () in
  let h, _ = Ctmc.mean_first_passage chain ~targets:[ 2 ] in
  (* solve: h1 = 1/(l+m) + (m/(l+m)) h0, h0 = 1/l + h1 *)
  let h0 =
    ((1.0 /. (l +. m)) +. (1.0 /. l)) /. (1.0 -. (m /. (l +. m)))
  in
  close ~eps:1e-8 "h0" h0 h;
  (* back from full to empty, starting away from state 0:
     h1 = (l+m)/m^2 and h2 = 1/m + h1 *)
  let back, _ =
    Ctmc.mean_first_passage
      (birth_death ~initial:2 ~arrival:l ~service:m ~k:2 ())
      ~targets:[ 0 ]
  in
  close ~eps:1e-12 "full to empty" ((1.0 /. m) +. ((l +. m) /. (m *. m))) back;
  (* a run that may fall into a trap never averages a finite time *)
  let tr src rate dst = { Ctmc.src; rate; actions = []; dst } in
  let trapped =
    Ctmc.make ~nb_states:4 ~initial:0 [ tr 0 1.0 1; tr 1 1.0 0; tr 1 1.0 2; tr 0 1.0 3 ]
  in
  Alcotest.(check bool) "trap makes it infinite" true
    (fst (Ctmc.mean_first_passage trapped ~targets:[ 2 ]) = infinity)

let test_ctmc_accumulated_reward () =
  (* Erlang-2 chain at rate 2, reward 3 in state 0 and 5 in state 1:
     expected accumulation = 3/2 + 5/2 *)
  let chain ~initial =
    Ctmc.make ~nb_states:3 ~initial
      [
        { Ctmc.src = 0; rate = 2.0; actions = []; dst = 1 };
        { Ctmc.src = 1; rate = 2.0; actions = []; dst = 2 };
      ]
  in
  let reward = function 0 -> 3.0 | 1 -> 5.0 | _ -> 100.0 in
  let g, _ = Ctmc.accumulated_reward (chain ~initial:0) ~reward ~targets:[ 2 ] in
  close ~eps:1e-9 "accumulated" 4.0 g;
  close "target" 0.0
    (fst (Ctmc.accumulated_reward (chain ~initial:2) ~reward ~targets:[ 2 ]));
  (* consistency: unit reward equals mean first passage *)
  let h, _ = Ctmc.mean_first_passage (chain ~initial:0) ~targets:[ 2 ] in
  let u, _ =
    Ctmc.accumulated_reward (chain ~initial:0) ~reward:(fun _ -> 1.0)
      ~targets:[ 2 ]
  in
  close ~eps:1e-12 "unit reward = passage time" h u

let test_ctmc_reach_probability () =
  let rate = 2.0 in
  let chain =
    Ctmc.make ~nb_states:2 ~initial:0
      [ { Ctmc.src = 0; rate; actions = []; dst = 1 } ]
  in
  close ~eps:1e-8 "cdf" (1.0 -. exp (-.rate *. 0.7))
    (Ctmc.reach_probability_by chain ~targets:[ 1 ] ~horizon:0.7)

let test_ctmc_validation () =
  Alcotest.check_raises "rate" (Invalid_argument "Ctmc.make: rate must be positive")
    (fun () ->
       ignore
         (Ctmc.make ~nb_states:1 ~initial:0
            [ { Ctmc.src = 0; rate = 0.0; actions = []; dst = 0 } ]))

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
  let chain = birth_death ~arrival:2.0 ~service:3.0 ~k:4 () in
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

(* Property: passage time, accumulated reward and multi-BSCC
   absorption from the renewal solves agree with the LU oracle's
   first-step equations within 1e-9 relative. Core states 0..n-1 form
   a ring (some also the reverse ring) with random chords, and the
   initial state is one of them; each of k classes is an absorbing
   state or a two-state cycle after them, fed by random leaks from the
   core, at least one; some chains also leak
   into a trap, an absorbing state outside the targets, which makes the
   passage times infinite. Rates are log-uniform over 1e-6..1e3. *)
let renewal_vs_lu_prop =
  let gen =
    QCheck2.Gen.(
      let rate = map (fun e -> 10.0 ** e) (float_range (-6.0) 3.0) in
      let* n = int_range 2 25 in
      let* initial = int_bound (n - 1) in
      let* k = int_range 1 3 in
      let* cycles = list_repeat k bool in
      let* ring = list_repeat n rate in
      let* back = option (list_repeat n rate) in
      let* chords =
        list_size (int_bound (2 * n))
          (triple (int_bound (n - 1)) (int_bound (n - 1)) rate)
      in
      let leak = triple (int_bound (n - 1)) (int_bound (k - 1)) rate in
      let* leaks = list_size (int_range 1 4) leak in
      let* trap = option (pair (int_bound (n - 1)) rate) in
      let* rewards = list_repeat n (float_range 0.0 10.0) in
      return (n, initial, cycles, ring, back, chords, leaks, trap, rewards))
  in
  let print (n, initial, cycles, ring, back, chords, leaks, trap, rewards) =
    let floats l = String.concat "; " (List.map (Printf.sprintf "%h") l) in
    Printf.sprintf
      "n=%d initial=%d cycles=[%s] ring=[%s] back=[%s] chords=[%s] \
       leaks=[%s] trap=%s rewards=[%s]"
      n initial
      (String.concat "; " (List.map string_of_bool cycles))
      (floats ring)
      (floats (Option.value back ~default:[]))
      (String.concat "; "
         (List.map (fun (s, d, r) -> Printf.sprintf "%d->%d %h" s d r) chords))
      (String.concat "; "
         (List.map (fun (s, c, r) -> Printf.sprintf "%d->c%d %h" s c r) leaks))
      (match trap with
       | None -> "none"
       | Some (s, r) -> Printf.sprintf "%d %h" s r)
      (floats rewards)
  in
  let agree a b =
    a = b || abs_float (a -. b) <= 1e-9 *. Float.max (abs_float a) (abs_float b)
  in
  QCheck2.Test.make ~name:"renewal solves = LU oracle within 1e-9 relative"
    ~count:200 ~print gen
    (fun (n, initial, cycles, ring, back, chords, leaks, trap, rewards) ->
       let tr src rate dst = { Ctmc.src; rate; actions = []; dst } in
       (* class c's entry state, and the states of every class *)
       let starts =
         List.rev
           (snd
              (List.fold_left
                 (fun (next, acc) cycle ->
                    ((next + if cycle then 2 else 1), next :: acc))
                 (n, []) cycles))
       in
       let classes =
         List.map2 (fun s cycle -> if cycle then [ s; s + 1 ] else [ s ]) starts
           cycles
       in
       let trap_state = n + List.length (List.concat classes) in
       let transitions =
         List.mapi (fun i r -> tr i r ((i + 1) mod n)) ring
         @ List.mapi (fun i r -> tr ((i + 1) mod n) r i)
             (Option.value back ~default:[])
         @ List.filter_map
             (fun (s, d, r) -> if s = d then None else Some (tr s r d))
             chords
         @ List.map (fun (s, c, r) -> tr s r (List.nth starts c)) leaks
         @ List.concat_map
             (function [ a; b ] -> [ tr a 1.0 b; tr b 2.0 a ] | _ -> [])
             classes
         @ match trap with None -> [] | Some (s, r) -> [ tr s r trap_state ]
       in
       let chain =
         Ctmc.make ~nb_states:(trap_state + 1) ~initial transitions
       in
       let targets = List.concat classes in
       let reward s = if s < n then List.nth rewards s else 0.0 in
       let passage, _ = Ctmc.mean_first_passage chain ~targets in
       let accumulated, _ = Ctmc.accumulated_reward chain ~reward ~targets in
       let pi, stats = Ctmc.steady_state_stats chain in
       let bottom = Ctmc.bsccs chain in
       let mass members = List.fold_left (fun acc s -> acc +. pi.(s)) 0.0 members in
       let check what ours oracle =
         if not (agree ours oracle) then
           QCheck2.Test.fail_reportf "%s: %.17g, oracle %.17g" what ours oracle
       in
       check "passage" passage
         (Linalg.passage_exact chain ~reward:(fun _ -> 1.0) ~targets);
       check "accumulated" accumulated (Linalg.passage_exact chain ~reward ~targets);
       List.iter2 (check "absorption") (List.map mass bottom)
         (Linalg.absorption_exact chain bottom);
       stats.Solver_stats.converged)

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
       let chain = birth_death ~arrival ~service ~k () in
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
    Alcotest.test_case "poisson point mass" `Quick test_poisson_point_mass;
    Alcotest.test_case "poisson weights" `Quick test_poisson_sums_to_one;
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
    Alcotest.test_case "ctmc validation" `Quick test_ctmc_validation;
    QCheck_alcotest.to_alcotest steady_prop;
    Alcotest.test_case "transient edge cases" `Quick test_transient_edge_cases;
    Alcotest.test_case "throughput listing" `Quick test_throughputs_listing;
    Alcotest.test_case "linalg dense solve" `Quick test_linalg_solve;
    Alcotest.test_case "linalg exact steady state" `Quick
      test_linalg_steady_exact;
    QCheck_alcotest.to_alcotest gs_vs_lu_prop;
    QCheck_alcotest.to_alcotest direct_vs_lu_prop;
    Alcotest.test_case "slow absorption: correct or flagged" `Quick
      test_slow_absorption_flagged;
    Alcotest.test_case "first passage behind a slow leak" `Quick
      test_slow_leak_passage;
    Alcotest.test_case "ring passage time = n / leak" `Quick test_ring_passage;
    Alcotest.test_case "ring beyond the direct caps: sweep budget honoured"
      `Quick test_ring_passage_budget;
    Alcotest.test_case "ring beyond the direct caps: sweeps converge" `Quick
      test_ring_passage_swept;
    Alcotest.test_case "ring leaking halfway round: passage converges" `Quick
      test_ring_passage_converges;
    QCheck_alcotest.to_alcotest ring_passage_prop;
    Alcotest.test_case "birth-death passage: node kept out of the band"
      `Quick test_birth_death_passage;
    QCheck_alcotest.to_alcotest renewal_vs_lu_prop;
  ]
