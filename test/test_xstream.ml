(* Tests for mv_xstream: analytic formulas, queue models, occupancy
   extraction, and the injected functional issues. *)

module Analytic = Mv_xstream.Analytic
module Queues = Mv_xstream.Queues
module Measures = Mv_xstream.Measures
module State_space = Mv_calc.State_space
module Lts = Mv_lts.Lts
module Flow = Mv_core.Flow

let keep gates = Flow.Config.(default |> with_keep gates)

let close ?(eps = 1e-8) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.8g, got %.8g" msg expected actual)
    true
    (abs_float (expected -. actual) <= eps)

let test_analytic_formulas () =
  let arrival = 2.0 and service = 3.0 and k = 4 in
  let pi = Analytic.pi ~arrival ~service ~k in
  close "mass" 1.0 (Array.fold_left ( +. ) 0.0 pi);
  (* rho = 2/3: pi_m proportional to rho^m *)
  close "geometric" (pi.(1) /. pi.(0)) (arrival /. service);
  close "blocking" pi.(k) (Analytic.blocking ~arrival ~service ~k);
  close "throughput"
    (arrival *. (1.0 -. pi.(k)))
    (Analytic.throughput ~arrival ~service ~k);
  (* Little's law consistency *)
  close "little"
    (Analytic.mean_jobs ~arrival ~service ~k
     /. Analytic.throughput ~arrival ~service ~k)
    (Analytic.mean_latency ~arrival ~service ~k)

let test_analytic_rho_one () =
  (* rho = 1: uniform distribution *)
  let pi = Analytic.pi ~arrival:2.0 ~service:2.0 ~k:3 in
  Array.iter (fun p -> close "uniform" 0.25 p) pi

let test_single_queue_end_to_end () =
  let arrival = 2.0 and service = 3.0 and capacity = 3 in
  let spec = Queues.single ~arrival ~service ~capacity in
  let s = Measures.summary spec ~capacity in
  let k = Queues.system_capacity ~capacity in
  close ~eps:1e-7 "throughput matches M/M/1/K"
    (Analytic.throughput ~arrival ~service ~k)
    s.Measures.throughput;
  Alcotest.(check bool) "occupancy in range" true
    (s.Measures.mean_occupancy >= 0.0
     && s.Measures.mean_occupancy <= float_of_int capacity);
  Alcotest.(check bool) "latency = occ/throughput" true
    (abs_float
       (s.Measures.mean_latency
        -. (s.Measures.mean_occupancy /. s.Measures.throughput))
     < 1e-9)

let test_occupancy_distribution_matches_system_states () =
  (* the queue-occupancy marginal relates to the M/M/1/K system-state
     distribution: a queue of n jobs corresponds to n+1 jobs in system
     (one in the consumer), except at the boundaries *)
  let arrival = 2.0 and service = 3.0 and capacity = 3 in
  let spec = Queues.single ~arrival ~service ~capacity in
  let dist = Measures.occupancy_distribution spec ~capacity in
  let k = Queues.system_capacity ~capacity in
  let pi = Analytic.pi ~arrival ~service ~k in
  close "mass" 1.0 (Array.fold_left ( +. ) 0.0 dist);
  (* occupancy 0 <-> system states 0 or 1 *)
  close ~eps:1e-7 "occ 0" (pi.(0) +. pi.(1)) dist.(0);
  (* middle occupancies map one-to-one *)
  for n = 1 to capacity - 1 do
    close ~eps:1e-7 (Printf.sprintf "occ %d" n) pi.(n + 1) dist.(n)
  done;
  (* full queue <-> system states K-1 and K *)
  close ~eps:1e-7 "occ full" (pi.(k - 1) +. pi.(k)) dist.(capacity)

let test_occupancy_of_term () =
  let spec = Queues.single ~arrival:1.0 ~service:1.0 ~capacity:2 in
  Alcotest.(check (option int)) "initial occupancy" (Some 0)
    (Measures.occupancy_of_term ~queue:"Queue" spec.Mv_calc.Ast.init);
  Alcotest.(check (option int)) "missing process" None
    (Measures.occupancy_of_term ~queue:"Nope" spec.Mv_calc.Ast.init)

let test_tandem_generates () =
  let spec =
    Queues.tandem ~arrival:1.0 ~transfer:2.0 ~service:3.0 ~capacity1:2
      ~capacity2:2
  in
  let perf = Flow.Run.performance (keep [ "pop" ]) spec in
  let tput = Flow.throughput perf ~gate:"pop" in
  (* stable tandem: throughput equals the arrival rate minus losses;
     it must be positive and below the arrival rate *)
  Alcotest.(check bool) "positive" true (tput > 0.0);
  Alcotest.(check bool) "below arrival" true (tput < 1.0)

let test_credit_queue_bounded () =
  let credits = 2 in
  let spec = Queues.credit ~arrival:2.0 ~service:1.0 ~capacity:4 ~credits in
  let dist = Measures.occupancy_distribution spec ~capacity:4 in
  (* with c credits the queue never exceeds c *)
  for n = credits + 1 to 4 do
    close (Printf.sprintf "occupancy %d unreachable" n) 0.0 dist.(n)
  done

let test_fifo_reference_properties () =
  let lts = State_space.lts (Queues.fifo_data ()) in
  Alcotest.(check (list int)) "no deadlock" [] (Lts.deadlocks lts);
  (* FIFO order: after push!0 push!1, the first pop is pop!0 *)
  let ordered =
    Mv_mcl.Parser.formula_of_string
      "[\"push !0\"] [\"push !1\"] [\"pop !1\"] false"
  in
  Alcotest.(check bool) "order preserved" true (Mv_mcl.Eval.holds lts ordered)

let test_functional_issues_detected () =
  let reference = State_space.lts (Queues.fifo_data ()) in
  let lossy = State_space.lts (Queues.fifo_lossy ()) in
  let unordered = State_space.lts (Queues.fifo_unordered ()) in
  Alcotest.(check bool) "reference self-equivalent" true
    (Mv_bisim.Branching.equivalent reference reference);
  Alcotest.(check bool) "lossy caught" false
    (Mv_bisim.Branching.equivalent reference lossy);
  Alcotest.(check bool) "unordered caught" false
    (Mv_bisim.Branching.equivalent reference unordered);
  (* the order property also catches the unordered variant directly *)
  let ordered =
    Mv_mcl.Parser.formula_of_string
      "[\"push !0\"] [\"push !1\"] [\"pop !1\"] false"
  in
  Alcotest.(check bool) "unordered violates FIFO order" false
    (Mv_mcl.Eval.holds unordered ordered)

let test_multi_producer_conservation () =
  let spec =
    Queues.multi_producer ~arrival0:1.0 ~arrival1:2.0 ~service:4.0 ~capacity:3
  in
  let perf = Flow.Run.performance (keep [ "push0"; "push1"; "pop" ]) spec in
  let t g = Flow.throughput perf ~gate:g in
  close ~eps:1e-8 "flow conservation" (t "pop") (t "push0" +. t "push1");
  Alcotest.(check bool) "both producers progress" true
    (t "push0" > 0.0 && t "push1" > 0.0);
  Alcotest.(check bool) "faster producer pushes more" true
    (t "push1" > t "push0")

let test_spill_refill_throttles () =
  let summary refill =
    Mv_xstream.Measures.spill_summary
      (Queues.spill ~arrival:2.0 ~service:3.0 ~refill ~hw_capacity:2
         ~spill_capacity:4)
  in
  let slow = summary 0.5 and fast = summary 8.0 in
  Alcotest.(check bool) "slow refill throttles throughput" true
    (slow.Measures.spill_throughput < fast.Measures.spill_throughput);
  Alcotest.(check bool) "slow refill parks more in memory" true
    (slow.Measures.mean_spilled > fast.Measures.mean_spilled);
  Alcotest.(check bool) "probabilities sane" true
    (slow.Measures.spilling > 0.0 && slow.Measures.spilling < 1.0);
  (* fast refill approaches the unspilled queue of combined capacity *)
  let reference =
    (Measures.summary
       (Queues.single ~arrival:2.0 ~service:3.0 ~capacity:6)
       ~capacity:6)
      .Measures.throughput
  in
  Alcotest.(check bool)
    (Printf.sprintf "fast refill near unspilled (%.4f vs %.4f)"
       fast.Measures.spill_throughput reference)
    true
    (abs_float (fast.Measures.spill_throughput -. reference) < 0.05)

let test_dual_server_lumping () =
  let spec = Queues.dual_server ~arrival:3.0 ~service:2.0 in
  let perf = Flow.Run.performance (keep [ "done" ]) spec in
  (* the two engines are symmetric: lumping must strictly reduce *)
  Alcotest.(check bool) "lumping reduces" true
    (Mv_imc.Imc.nb_states perf.Flow.lumped
     < Mv_imc.Imc.nb_states perf.Flow.imc);
  (* two parallel engines outperform a single one at the same rates *)
  let single =
    Flow.Run.performance (keep [ "done" ])
      (Flow.model_of_text
         {|
process Source := rate 3.0 ; grab ; Source
process Engine := grab ; rate 2.0 ; done ; Engine
init Source |[grab]| Engine
|})
  in
  let t2 = Flow.throughput perf ~gate:"done" in
  let t1 = Flow.throughput single ~gate:"done" in
  Alcotest.(check bool)
    (Printf.sprintf "2 engines (%.3f) beat 1 (%.3f)" t2 t1)
    true (t2 > t1)

let test_credit_equivalence_theorem () =
  (* With the token round hidden, a credit-windowed queue of c credits
     behaves exactly like a plain c-place queue, whatever the physical
     capacity: the little theorem behind credit-based flow control. *)
  let credit_text c k =
    Printf.sprintf
      {|
process Credits (c : int[0..%d]) :=
    [c > 0] -> grant ; Credits(c - 1)
 [] [c < %d] -> free ; Credits(c + 1)
process Queue (n : int[0..%d]) :=
    [n < %d] -> push ; Queue(n + 1)
 [] [n > 0] -> pop ; Queue(n - 1)
process Producer := grant ; push ; Producer
process Consumer := pop ; free ; Consumer
init hide grant, free in
  ((Producer |[grant, push]| (Credits(%d) ||| Queue(0))) |[pop, free]| Consumer)
|}
      c c k k c
  in
  let plain c =
    Printf.sprintf
      {|
process Queue (n : int[0..%d]) :=
    [n < %d] -> push ; Queue(n + 1)
 [] [n > 0] -> pop ; Queue(n - 1)
init Queue(0)
|}
      c c
  in
  List.iter
    (fun (c, k) ->
       let windowed =
         Mv_calc.State_space.lts (Mv_calc.Parser.spec_of_string_checked (credit_text c k))
       in
       let reference =
         Mv_calc.State_space.lts (Mv_calc.Parser.spec_of_string_checked (plain c))
       in
       Alcotest.(check bool)
         (Printf.sprintf "credits %d over capacity %d == plain %d-queue" c k c)
         true
         (Mv_bisim.Branching.equivalent windowed reference))
    [ (1, 3); (2, 4); (3, 3) ]

(* Property: the full pipeline matches M/M/1/K throughput across a
   parameter sweep. *)
let pipeline_matches_analytic_prop =
  let gen =
    QCheck2.Gen.(
      triple (float_range 0.5 4.0) (float_range 0.5 4.0) (int_range 1 4))
  in
  QCheck2.Test.make ~name:"pipeline throughput = M/M/1/K closed form" ~count:15
    gen
    (fun (arrival, service, capacity) ->
       let spec = Queues.single ~arrival ~service ~capacity in
       let perf = Flow.Run.performance (keep [ "pop" ]) spec in
       let tput = Flow.throughput perf ~gate:"pop" in
       let k = Queues.system_capacity ~capacity in
       let expected = Analytic.throughput ~arrival ~service ~k in
       abs_float (tput -. expected) /. expected < 1e-6)

let suite =
  [
    Alcotest.test_case "analytic formulas" `Quick test_analytic_formulas;
    Alcotest.test_case "analytic rho=1" `Quick test_analytic_rho_one;
    Alcotest.test_case "single queue end to end" `Quick
      test_single_queue_end_to_end;
    Alcotest.test_case "occupancy vs system states" `Quick
      test_occupancy_distribution_matches_system_states;
    Alcotest.test_case "occupancy_of_term" `Quick test_occupancy_of_term;
    Alcotest.test_case "tandem" `Quick test_tandem_generates;
    Alcotest.test_case "credit flow control bounds occupancy" `Quick
      test_credit_queue_bounded;
    Alcotest.test_case "FIFO reference properties" `Quick
      test_fifo_reference_properties;
    Alcotest.test_case "functional issues detected" `Quick
      test_functional_issues_detected;
    QCheck_alcotest.to_alcotest pipeline_matches_analytic_prop;
    Alcotest.test_case "multi-producer arbitration" `Quick
      test_multi_producer_conservation;
    Alcotest.test_case "dual server: lumping + speedup" `Quick
      test_dual_server_lumping;
    Alcotest.test_case "spill/refill queue" `Quick test_spill_refill_throttles;
    Alcotest.test_case "credit window theorem" `Quick
      test_credit_equivalence_theorem;
  ]
