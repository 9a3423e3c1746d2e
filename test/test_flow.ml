(* End-to-end tests of the Multival flow (mv_core): verification and
   performance pipelines validated against closed forms and the
   simulator. *)

module Flow = Mv_core.Flow
module Ctmc = Mv_markov.Ctmc
module To_ctmc = Mv_imc.To_ctmc

let keep gates = Flow.Config.(default |> with_keep gates)

let close ?(eps = 1e-6) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.8g, got %.8g" msg expected actual)
    true
    (abs_float (expected -. actual) <= eps)

let mm1_text ~arrival ~service ~capacity =
  Printf.sprintf
    {|
process Producer := rate %.12g ; push ; Producer
process Consumer := pop ; rate %.12g ; Consumer
process Queue (n : int[0..%d]) :=
    [n < %d] -> push ; Queue(n + 1)
 [] [n > 0] -> pop ; Queue(n - 1)
init (Producer |[push]| Queue(0)) |[pop]| Consumer
|}
    arrival service capacity capacity

let test_model_of_text_errors () =
  (try
     ignore (Flow.model_of_text "init [2] -> stop");
     Alcotest.fail "expected Type_error"
   with Mv_calc.Typecheck.Type_error _ -> ());
  try
    ignore (Flow.model_of_text "???");
    Alcotest.fail "expected Parse_error"
  with Mv_calc.Parser.Parse_error _ -> ()

let test_verify_pipeline () =
  let spec = Flow.model_of_text (mm1_text ~arrival:1.0 ~service:2.0 ~capacity:2) in
  let v =
    Flow.Run.verify Flow.Config.(default |> with_hide [ "push" ]) spec
      [
        ("deadlock free", Mv_mcl.Formula.Macro.deadlock_free);
        ( "pop reachable",
          Mv_mcl.Formula.Macro.possibly
            (Mv_mcl.Formula.Macro.can_do (Mv_mcl.Action_formula.Gate "pop")) );
        ("never pops", Mv_mcl.Formula.Macro.never (Mv_mcl.Action_formula.Gate "pop"));
      ]
  in
  Alcotest.(check (list int)) "no deadlocks" [] v.Flow.deadlock_states;
  Alcotest.(check bool) "all_hold is false (one property fails)" false
    (Flow.all_hold v);
  let expected = [ true; true; false ] in
  List.iter2
    (fun r e -> Alcotest.(check bool) r.Flow.property_name e r.Flow.holds)
    v.Flow.results expected;
  Alcotest.(check bool) "minimized smaller or equal" true
    (Mv_lts.Lts.nb_states v.Flow.minimized <= Mv_lts.Lts.nb_states v.Flow.lts)

let test_performance_matches_analytic () =
  let arrival = 2.0 and service = 3.0 and capacity = 3 in
  let spec = Flow.model_of_text (mm1_text ~arrival ~service ~capacity) in
  let perf = Flow.Run.performance (keep [ "pop" ]) spec in
  let k = capacity + 2 in
  close ~eps:1e-8 "throughput"
    (Mv_xstream.Analytic.throughput ~arrival ~service ~k)
    (Flow.throughput perf ~gate:"pop")

let test_performance_lumping_consistent () =
  let arrival = 2.0 and service = 3.0 and capacity = 3 in
  let spec = Flow.model_of_text (mm1_text ~arrival ~service ~capacity) in
  let perf = Flow.Run.performance (keep [ "pop" ]) spec in
  (* computing on the unlumped IMC gives the same throughput *)
  let hidden =
    Mv_imc.Imc.hide perf.Flow.imc ~gates:[ "push" ]
  in
  let conv = To_ctmc.convert (Mv_imc.Imc.maximal_progress hidden) in
  let pi = Ctmc.steady_state conv.To_ctmc.ctmc in
  let direct = Ctmc.throughput conv.To_ctmc.ctmc ~pi ~action:"pop" in
  close ~eps:1e-8 "lumped = unlumped" direct (Flow.throughput perf ~gate:"pop");
  Alcotest.(check bool) "lumping reduced states" true
    (Mv_imc.Imc.nb_states perf.Flow.lumped <= Mv_imc.Imc.nb_states perf.Flow.imc)

let test_time_to_first () =
  (* the pop rendezvous fires the instant the first job reaches the
     consumer, i.e. right after the first arrival: mean = 1/a *)
  let arrival = 2.0 and service = 5.0 in
  let spec = Flow.model_of_text (mm1_text ~arrival ~service ~capacity:2) in
  let perf = Flow.Run.performance (keep [ "pop" ]) spec in
  let time, stats = Flow.time_to_first perf ~gate:"pop" in
  close ~eps:1e-8 "mean time to first pop" (1.0 /. arrival) time;
  Alcotest.(check bool) "passage solve converged" true
    stats.Mv_markov.Solver_stats.converged;
  Alcotest.(check bool) "absent gate never occurs" true
    (fst (Flow.time_to_first perf ~gate:"no_such_gate") = infinity);
  let p_small = Flow.probability_by perf ~gate:"pop" ~horizon:0.01 in
  let p_large = Flow.probability_by perf ~gate:"pop" ~horizon:100.0 in
  Alcotest.(check bool) "cdf monotone" true (p_small < p_large);
  Alcotest.(check bool) "cdf -> 1" true (p_large > 0.999)

let test_throughputs_listing () =
  let spec = Flow.model_of_text (mm1_text ~arrival:2.0 ~service:3.0 ~capacity:2) in
  let perf = Flow.Run.performance (keep [ "pop"; "push" ]) spec in
  let listed = Flow.throughputs perf in
  Alcotest.(check int) "two visible actions" 2 (List.length listed);
  (* flow conservation: push and pop rates agree in steady state *)
  let find gate = List.assoc gate listed in
  close ~eps:1e-8 "conservation" (find "push") (find "pop")

let test_performance_vs_simulation () =
  let arrival = 2.0 and service = 3.0 and capacity = 3 in
  let spec = Flow.model_of_text (mm1_text ~arrival ~service ~capacity) in
  let perf = Flow.Run.performance (keep [ "pop" ]) spec in
  let numeric = Flow.throughput perf ~gate:"pop" in
  let simulated =
    Mv_sim.Des.throughput perf.Flow.imc ~action:"pop" ~horizon:20_000.0
      ~seed:31L
  in
  Alcotest.(check bool)
    (Printf.sprintf "simulated %.4f vs numeric %.4f" simulated numeric)
    true
    (abs_float (simulated -. numeric) /. numeric < 0.05)

let test_expected_reward () =
  let spec = Flow.model_of_text (mm1_text ~arrival:2.0 ~service:3.0 ~capacity:2) in
  let perf = Flow.Run.performance Flow.Config.default spec in
  close ~eps:1e-9 "unit reward" 1.0 (Flow.expected_reward perf (fun _ -> 1.0))

let test_delay_insertion_methodology () =
  (* The paper's compositional decoration (SS4): (1) localize the
     delay, (2) expose its start and end as gates, (3) instantiate it
     by synchronizing with an auxiliary phase-type process. The result
     must match writing the rate inline. *)
  let inline =
    Flow.model_of_text
      {|
process Worker := begin_work ; rate 4.0 ; end_work ; done ; Worker
init Worker
|}
  in
  let decorated_text =
    {|
process Worker := begin_work ; end_work ; done ; Worker
init hide begin_work, end_work in (Worker |[begin_work, end_work]| Delay)
|}
  in
  (* parse unchecked (Delay is provided programmatically), then check *)
  let with_delay delay_process =
    let spec = Mv_calc.Parser.spec_of_string decorated_text in
    let spec =
      { spec with
        Mv_calc.Ast.processes = delay_process :: spec.Mv_calc.Ast.processes }
    in
    Mv_calc.Typecheck.check_spec spec;
    spec
  in
  let decorated =
    with_delay
      (Mv_imc.Phase.process (Mv_imc.Phase.Exponential 4.0) ~name:"Delay"
         ~start:"begin_work" ~finish:"end_work")
  in
  let throughput spec =
    Flow.throughput (Flow.Run.performance (keep [ "done" ]) spec) ~gate:"done"
  in
  let t1 = throughput decorated in
  let t2 =
    throughput
      { inline with
        Mv_calc.Ast.init =
          Mv_calc.Ast.Hide ([ "begin_work"; "end_work" ], inline.Mv_calc.Ast.init) }
  in
  close ~eps:1e-9 "decorated = inline" t2 t1;
  close ~eps:1e-9 "rate value" 4.0 t1;
  (* an Erlang-3 delay through the same methodology has the same mean,
     hence the same renewal throughput *)
  let decorated_erlang =
    with_delay
      (Mv_imc.Phase.process (Mv_imc.Phase.Erlang (3, 12.0)) ~name:"Delay"
         ~start:"begin_work" ~finish:"end_work")
  in
  close ~eps:1e-9 "erlang same mean, same throughput" 4.0
    (throughput decorated_erlang)

let test_witnesses () =
  let deadlocking = Flow.model_of_text "init a ; b ; stop" in
  let v = Flow.Run.verify Flow.Config.default deadlocking [] in
  (match Flow.deadlock_witness v with
   | Some t ->
     Alcotest.(check (list string)) "deadlock witness" [ "a"; "b" ]
       t.Mv_lts.Trace.labels
   | None -> Alcotest.fail "expected deadlock");
  (match Flow.action_witness v ~gate:"b" with
   | Some t ->
     Alcotest.(check (list string)) "action witness" [ "a"; "b" ]
       t.Mv_lts.Trace.labels
   | None -> Alcotest.fail "b reachable");
  Alcotest.(check bool) "absent action" true
    (Flow.action_witness v ~gate:"zz" = None);
  let live = Flow.model_of_text "process P := a ; P\ninit P" in
  let v = Flow.Run.verify Flow.Config.default live [] in
  Alcotest.(check bool) "no deadlock, no witness" true
    (Flow.deadlock_witness v = None)

let test_generate_compositional () =
  (* a 4-stage buffer chain written as one MVL spec: the compositional
     generator must agree with the monolithic one and keep the peak
     smaller *)
  let text =
    {|
process Buf [input, output] (n : int[0..2]) :=
    [n < 2] -> input ; Buf[input, output](n + 1)
 [] [n > 0] -> output ; Buf[input, output](n - 1)
init hide g1 in ((hide g2 in ((Buf[g0, g1](0) |[g1]| Buf[g1, g2](0)) |[g2]| Buf[g2, g3](0))))
|}
  in
  let spec = Flow.model_of_text text in
  let monolithic = Flow.Run.generate Flow.Config.default spec in
  let report = Flow.Run.generate_compositional Flow.Config.default spec in
  Alcotest.(check bool) "branching equivalent" true
    (Mv_bisim.Branching.equivalent monolithic report.Mv_compose.Net.result);
  Alcotest.(check bool) "peak not larger" true
    (report.Mv_compose.Net.peak_states <= Mv_lts.Lts.nb_states monolithic);
  Alcotest.(check bool) "really split" true
    (List.length report.Mv_compose.Net.steps > 3)

(* A state budget bounds every step of a compositional generation,
   not only the leaves: the leaves of a 6-buffer chain have 3 states
   each, but its products grow to 729. A warm run, whose result comes
   from the cache, must fail where the cold one does. *)
let test_compositional_budget () =
  let text =
    {|
process Buf [input, output] (n : int[0..2]) :=
    [n < 2] -> input ; Buf[input, output](n + 1)
 [] [n > 0] -> output ; Buf[input, output](n - 1)
init ((((Buf[g0, g1](0) |[g1]| Buf[g1, g2](0)) |[g2]| Buf[g2, g3](0))
  |[g3]| Buf[g3, g4](0)) |[g4]| Buf[g4, g5](0)) |[g5]| Buf[g5, g6](0)
|}
  in
  let spec = Flow.model_of_text text in
  let budgeted config =
    Flow.Config.with_budget
      (Some (Mv_core.Budget.create ~max_states:100 ()))
      config
  in
  let exceeds name config =
    match Flow.Run.generate_compositional config spec with
    | _ -> Alcotest.failf "%s: a 100-state budget passed" name
    | exception Mv_core.Budget.Exceeded { resource; _ } ->
      Alcotest.(check string) (name ^ ": resource") "states" resource
  in
  exceeds "cold" (budgeted Flow.Config.default);
  Test_store.in_sandbox @@ fun dir ->
  let cached =
    Flow.Config.with_cache (Some (Mv_store.Cache.open_dir dir))
      Flow.Config.default
  in
  let report = Flow.Run.generate_compositional cached spec in
  Alcotest.(check int) "unbudgeted result" 729
    (Mv_lts.Lts.nb_states report.Mv_compose.Net.result);
  exceeds "warm" (budgeted cached)

(* [max_states] bounds every step of a compositional generation as it
   bounds a monolithic one: the 6-buffer chain's leaves have 3 states
   each, its products grow to 729, and both runs must fail at 100 with
   the explorer's error. A cached product is checked too, here one
   stored under the same key by a run that did not bound products. *)
let test_compositional_max_states () =
  let text =
    {|
process Buf [input, output] (n : int[0..2]) :=
    [n < 2] -> input ; Buf[input, output](n + 1)
 [] [n > 0] -> output ; Buf[input, output](n - 1)
init ((((Buf[g0, g1](0) |[g1]| Buf[g1, g2](0)) |[g2]| Buf[g2, g3](0))
  |[g3]| Buf[g3, g4](0)) |[g4]| Buf[g4, g5](0)) |[g5]| Buf[g5, g6](0)
|}
  in
  let spec = Flow.model_of_text text in
  let bounded = Flow.Config.(default |> with_max_states 100) in
  let exceeds name run =
    match run () with
    | _ -> Alcotest.failf "%s: 100 states allowed" name
    | exception Mv_lts.Explore.Too_many_states bound ->
      Alcotest.(check int) (name ^ ": bound") 100 bound
  in
  exceeds "monolithic" (fun () -> ignore (Flow.Run.generate bounded spec));
  exceeds "compositional" (fun () ->
      ignore (Flow.Run.generate_compositional bounded spec));
  Test_store.in_sandbox @@ fun dir ->
  let cache = Mv_store.Cache.open_dir dir in
  let product =
    (Flow.Run.generate_compositional Flow.Config.default spec)
      .Mv_compose.Net.result
  in
  Mv_store.Cache.store_lts cache ~op:"generate_compositional"
    ~params:[ ("max_states", "100"); ("plan", "naive") ]
    (Mv_calc.Ast.spec_to_string spec)
    product;
  exceeds "cache hit" (fun () ->
      ignore
        (Flow.Run.generate_compositional
           (Flow.Config.with_cache (Some cache) bounded)
           spec))

let suite =
  [
    Alcotest.test_case "model_of_text errors" `Quick test_model_of_text_errors;
    Alcotest.test_case "verification pipeline" `Quick test_verify_pipeline;
    Alcotest.test_case "performance vs closed form" `Quick
      test_performance_matches_analytic;
    Alcotest.test_case "lumping consistency" `Quick
      test_performance_lumping_consistent;
    Alcotest.test_case "time to first action" `Quick test_time_to_first;
    Alcotest.test_case "throughput listing + conservation" `Quick
      test_throughputs_listing;
    Alcotest.test_case "numeric vs simulation" `Slow test_performance_vs_simulation;
    Alcotest.test_case "expected reward" `Quick test_expected_reward;
    Alcotest.test_case "delay-insertion methodology (paper SS4)" `Quick
      test_delay_insertion_methodology;
    Alcotest.test_case "verification witnesses" `Quick test_witnesses;
    Alcotest.test_case "compositional generation" `Quick
      test_generate_compositional;
    Alcotest.test_case "compositional generation within the state budget"
      `Quick test_compositional_budget;
    Alcotest.test_case "compositional generation within --max-states" `Quick
      test_compositional_max_states;
  ]
