(* Tests for mv_imc: IMC structure, composition, maximal progress,
   phase-type distributions, lumping, and CTMC extraction. *)

module Imc = Mv_imc.Imc
module Phase = Mv_imc.Phase
module Lump = Mv_imc.Lump
module To_ctmc = Mv_imc.To_ctmc
module Ctmc = Mv_markov.Ctmc
module Label = Mv_lts.Label
module Lts = Mv_lts.Lts

let close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.10g, got %.10g" msg expected actual)
    true
    (abs_float (expected -. actual) <= eps)

let simple_imc () =
  let labels = Label.create () in
  let a = Label.intern labels "a" in
  Imc.make ~nb_states:3 ~initial:0 ~labels
    ~interactive:[ (1, a, 2) ]
    ~markovian:[ (0, 2.0, 1); (2, 1.0, 0) ]

let test_structure () =
  let imc = simple_imc () in
  Alcotest.(check int) "states" 3 (Imc.nb_states imc);
  Alcotest.(check int) "interactive" 1 (Imc.nb_interactive imc);
  Alcotest.(check int) "markovian" 2 (Imc.nb_markovian imc);
  Alcotest.(check (list int)) "unstable" [ 1 ] (Imc.unstable_states imc);
  Alcotest.(check int) "interactive out" 1
    (List.length (Imc.interactive_out imc 1));
  Alcotest.(check int) "markovian out" 1 (List.length (Imc.markovian_out imc 0))

let test_lts_round_trip () =
  let imc = simple_imc () in
  let back = Imc.of_lts (Imc.to_lts imc) in
  Alcotest.(check int) "states" (Imc.nb_states imc) (Imc.nb_states back);
  Alcotest.(check int) "interactive" (Imc.nb_interactive imc)
    (Imc.nb_interactive back);
  Alcotest.(check int) "markovian" (Imc.nb_markovian imc) (Imc.nb_markovian back);
  let rates = ref [] in
  Imc.iter_markovian back (fun _ r _ -> rates := r :: !rates);
  Alcotest.(check (list (float 1e-12))) "rates" [ 2.0; 1.0 ]
    (List.sort compare !rates |> List.rev)

let test_of_lts_decodes_rates () =
  let spec = Mv_calc.Parser.spec_of_string_checked "init rate 3.5 ; a ; stop" in
  let imc = Imc.of_lts (Mv_calc.State_space.lts spec) in
  Alcotest.(check int) "one markovian" 1 (Imc.nb_markovian imc);
  Alcotest.(check int) "one interactive" 1 (Imc.nb_interactive imc);
  Imc.iter_markovian imc (fun _ r _ -> close "rate decoded" 3.5 r)

let test_hide () =
  let imc = simple_imc () in
  let hidden = Imc.hide imc ~gates:[ "a" ] in
  let all_tau = ref true in
  Imc.iter_interactive hidden (fun _ l _ -> if l <> Label.tau then all_tau := false);
  Alcotest.(check bool) "hidden to tau" true !all_tau;
  let hidden2 = Imc.hide_all imc in
  let all_tau2 = ref true in
  Imc.iter_interactive hidden2 (fun _ l _ -> if l <> Label.tau then all_tau2 := false);
  Alcotest.(check bool) "hide_all" true !all_tau2

let test_maximal_progress () =
  let labels = Label.create () in
  let imc =
    Imc.make ~nb_states:2 ~initial:0 ~labels
      ~interactive:[ (0, Label.tau, 1) ]
      ~markovian:[ (0, 5.0, 1); (1, 1.0, 0) ]
  in
  let cut = Imc.maximal_progress imc in
  Alcotest.(check int) "markovian cut at tau state" 1 (Imc.nb_markovian cut);
  Alcotest.(check int) "interactive kept" 1 (Imc.nb_interactive cut)

let test_par_sync () =
  (* a-transition synchronizes; rates interleave *)
  let labels1 = Label.create () in
  let a1 = Label.intern labels1 "a" in
  let left =
    Imc.make ~nb_states:2 ~initial:0 ~labels:labels1
      ~interactive:[ (0, a1, 1) ]
      ~markovian:[ (1, 2.0, 0) ]
  in
  let labels2 = Label.create () in
  let a2 = Label.intern labels2 "a" in
  let right =
    Imc.make ~nb_states:2 ~initial:0 ~labels:labels2
      ~interactive:[ (0, a2, 1) ]
      ~markovian:[ (1, 3.0, 0) ]
  in
  let product = Imc.par ~sync:[ "a" ] left right in
  Alcotest.(check int) "reachable product" 4 (Imc.nb_states product);
  Alcotest.(check int) "one synced interactive" 1 (Imc.nb_interactive product);
  (* without sync the a-moves interleave *)
  let free = Imc.par ~sync:[] left right in
  Alcotest.(check int) "interleaved interactive" 4 (Imc.nb_interactive free)

let test_phase_moments () =
  close "exp mean" 0.5 (Phase.mean (Phase.Exponential 2.0));
  close "erlang mean" 2.0 (Phase.mean (Phase.Erlang (4, 2.0)));
  close "erlang var" 1.0 (Phase.variance (Phase.Erlang (4, 2.0)));
  close "erlang cv" 0.5 (Phase.coefficient_of_variation (Phase.Erlang (4, 2.0)));
  close "hypoexp mean" (1.0 +. 0.5)
    (Phase.mean (Phase.Hypoexponential [ 1.0; 2.0 ]));
  Alcotest.(check int) "phases" 3 (Phase.nb_phases (Phase.Erlang (3, 1.0)));
  let det = Phase.erlang_of_deterministic ~phases:16 ~delay:2.0 in
  close "det mean" 2.0 (Phase.mean det);
  close "det cv" 0.25 (Phase.coefficient_of_variation det)

let test_phase_process_generates () =
  let proc =
    Phase.process (Phase.Erlang (3, 6.0)) ~name:"Delay" ~start:"s" ~finish:"f"
  in
  let spec =
    { Mv_calc.Ast.enums = []; processes = [ proc ];
      init = Mv_calc.Ast.Call ("Delay", [], []) }
  in
  let lts = Mv_calc.State_space.lts spec in
  (* s, 3 phases, f: 5 states in a cycle *)
  Alcotest.(check int) "cycle length" 5 (Lts.nb_states lts)

let test_phase_absorbing_mean () =
  let dist = Phase.Erlang (4, 8.0) in
  let imc = Phase.absorbing_imc dist in
  let conv = To_ctmc.convert (Imc.hide_all imc) in
  let ctmc = conv.To_ctmc.ctmc in
  let targets =
    (* the absorbing CTMC states *)
    Ctmc.absorbing_states ctmc
  in
  let h, _ = Ctmc.mean_first_passage ctmc ~targets in
  close ~eps:1e-8 "absorption time = mean" (Phase.mean dist) h

let test_lump_erlang_branches () =
  (* two identical parallel Erlang branches lump together *)
  let labels = Label.create () in
  let imc =
    Imc.make ~nb_states:5 ~initial:0 ~labels ~interactive:[]
      ~markovian:
        [ (0, 1.0, 1); (0, 1.0, 2); (1, 3.0, 3); (2, 3.0, 4) ]
  in
  let lumped = Lump.minimize imc in
  (* states 1,2 merge and 3,4 merge; rates 1+1 sum *)
  Alcotest.(check int) "3 states" 3 (Imc.nb_states lumped);
  let total_rate_from_initial =
    List.fold_left (fun acc (r, _) -> acc +. r) 0.0
      (Imc.markovian_out lumped (Imc.initial lumped))
  in
  close "summed rate" 2.0 total_rate_from_initial;
  Alcotest.(check bool) "lumped equivalent" true (Lump.equivalent imc lumped)

let test_lump_distinguishes_rates () =
  let labels = Label.create () in
  let imc =
    Imc.make ~nb_states:3 ~initial:0 ~labels ~interactive:[]
      ~markovian:[ (0, 1.0, 1); (0, 1.0, 2); (1, 3.0, 0); (2, 4.0, 0) ]
  in
  let lumped = Lump.minimize imc in
  Alcotest.(check int) "no lumping" 3 (Imc.nb_states lumped)

let test_to_ctmc_vanishing_chain () =
  (* 0 -2.0-> v1 -a-> v2 -tau-> 3: the chain collapses into one
     tagged transition *)
  let labels = Label.create () in
  let a = Label.intern labels "a" in
  let imc =
    Imc.make ~nb_states:4 ~initial:0 ~labels
      ~interactive:[ (1, a, 2); (2, Label.tau, 3) ]
      ~markovian:[ (0, 2.0, 1); (3, 1.0, 0) ]
  in
  let conv = To_ctmc.convert imc in
  Alcotest.(check int) "2 tangible states" 2 (Ctmc.nb_states conv.To_ctmc.ctmc);
  let found = ref false in
  Ctmc.iter_transitions conv.To_ctmc.ctmc (fun tr ->
      if tr.Ctmc.actions = [ "a" ] then begin
        found := true;
        close "rate preserved" 2.0 tr.Ctmc.rate
      end);
  Alcotest.(check bool) "action tag collected" true !found

let test_to_ctmc_probabilistic_split () =
  (* uniform scheduler splits a nondeterministic vanishing state *)
  let labels = Label.create () in
  let a = Label.intern labels "a" and b = Label.intern labels "b" in
  let imc =
    Imc.make ~nb_states:4 ~initial:0 ~labels
      ~interactive:[ (1, a, 2); (1, b, 3) ]
      ~markovian:[ (0, 4.0, 1); (2, 1.0, 0); (3, 1.0, 0) ]
  in
  Alcotest.(check (list int)) "nondet detected" [ 1 ]
    (To_ctmc.nondeterministic_states imc);
  let conv = To_ctmc.convert ~scheduler:To_ctmc.Uniform imc in
  let rates = ref [] in
  Ctmc.iter_transitions conv.To_ctmc.ctmc (fun tr ->
      if Ctmc.initial conv.To_ctmc.ctmc = tr.Ctmc.src then
        rates := (tr.Ctmc.actions, tr.Ctmc.rate) :: !rates);
  Alcotest.(check int) "split in two" 2 (List.length !rates);
  List.iter (fun (_, r) -> close "half rate" 2.0 r) !rates;
  (* Fail scheduler mirrors CADP's rejection *)
  (try
     ignore (To_ctmc.convert ~scheduler:To_ctmc.Fail imc);
     Alcotest.fail "expected Nondeterministic"
   with To_ctmc.Nondeterministic s -> Alcotest.(check int) "state" 1 s);
  (* deterministic schedulers pick one branch *)
  let conv_a = To_ctmc.convert ~scheduler:(To_ctmc.Deterministic (fun _ -> 0)) imc in
  let pi = Ctmc.steady_state conv_a.To_ctmc.ctmc in
  let tput_a = Ctmc.throughput conv_a.To_ctmc.ctmc ~pi ~action:"a" in
  let tput_b = Ctmc.throughput conv_a.To_ctmc.ctmc ~pi ~action:"b" in
  Alcotest.(check bool) "scheduler picks a" true (tput_a > 0.0 && tput_b = 0.0)

let test_to_ctmc_bounds () =
  let labels = Label.create () in
  let a = Label.intern labels "a" and b = Label.intern labels "b" in
  let imc =
    Imc.make ~nb_states:4 ~initial:0 ~labels
      ~interactive:[ (1, a, 2); (1, b, 3) ]
      ~markovian:[ (0, 4.0, 1); (2, 1.0, 0); (3, 2.0, 0) ]
  in
  let metric conv =
    let pi = Ctmc.steady_state conv.To_ctmc.ctmc in
    Ctmc.throughput conv.To_ctmc.ctmc ~pi ~action:"a"
  in
  (match To_ctmc.bounds imc ~metric ~limit:16 with
   | None -> Alcotest.fail "bounds should be computable"
   | Some (lo, hi) ->
     Alcotest.(check bool) "lo < hi" true (lo < hi);
     close "lo is never-a" 0.0 lo);
  Alcotest.(check bool) "limit respected" true
    (To_ctmc.bounds imc ~metric ~limit:1 = None)

let test_local_bounds_match_exhaustive () =
  let labels = Label.create () in
  let a = Label.intern labels "a" and b = Label.intern labels "b" in
  let imc =
    Imc.make ~nb_states:4 ~initial:0 ~labels
      ~interactive:[ (1, a, 2); (1, b, 3) ]
      ~markovian:[ (0, 2.0, 1); (2, 6.0, 0); (3, 1.5, 0) ]
  in
  let metric conv =
    let pi = Ctmc.steady_state conv.To_ctmc.ctmc in
    List.fold_left (fun acc (_, v) -> acc +. v) 0.0
      (Ctmc.throughputs conv.To_ctmc.ctmc ~pi)
  in
  let exact_lo, exact_hi = Option.get (To_ctmc.bounds imc ~metric ~limit:64) in
  let local_lo, local_hi = To_ctmc.local_bounds imc ~metric in
  close ~eps:1e-9 "local min = exhaustive min" exact_lo local_lo;
  close ~eps:1e-9 "local max = exhaustive max" exact_hi local_hi

let test_to_ctmc_divergence () =
  (* tau cycle with no exit diverges *)
  let labels = Label.create () in
  let imc =
    Imc.make ~nb_states:3 ~initial:0 ~labels
      ~interactive:[ (1, Label.tau, 2); (2, Label.tau, 1) ]
      ~markovian:[ (0, 1.0, 1) ]
  in
  try
    ignore (To_ctmc.convert imc);
    Alcotest.fail "expected Divergence"
  with To_ctmc.Divergence _ -> ()

let test_to_ctmc_vanishing_initial () =
  (* deterministic vanishing initial state resolves without artifacts *)
  let labels = Label.create () in
  let a = Label.intern labels "a" in
  let imc =
    Imc.make ~nb_states:3 ~initial:0 ~labels
      ~interactive:[ (0, a, 1) ]
      ~markovian:[ (1, 1.0, 2); (2, 1.0, 1) ]
  in
  let conv = To_ctmc.convert imc in
  Alcotest.(check int) "no artificial state" 2 (Ctmc.nb_states conv.To_ctmc.ctmc)

let test_urgency_cut_reported () =
  (* a state with both an interactive and a Markovian transition: the
     conversion records the urgency decision *)
  let labels = Label.create () in
  let a = Label.intern labels "a" in
  let imc =
    Imc.make ~nb_states:3 ~initial:0 ~labels
      ~interactive:[ (1, a, 2) ]
      ~markovian:[ (0, 1.0, 1); (1, 5.0, 0); (2, 1.0, 0) ]
  in
  let conv = To_ctmc.convert imc in
  Alcotest.(check (list int)) "urgency cut at state 1" [ 1 ]
    conv.To_ctmc.urgency_cut;
  (* the Markovian race from the vanishing state is discarded: from
     the CTMC's view state 1 does not exist *)
  Alcotest.(check int) "two tangible states" 2 (Ctmc.nb_states conv.To_ctmc.ctmc)

let test_imc_validation () =
  let labels = Label.create () in
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Imc.make: rate must be positive") (fun () ->
      ignore
        (Imc.make ~nb_states:1 ~initial:0 ~labels ~interactive:[]
           ~markovian:[ (0, -1.0, 0) ]));
  Alcotest.check_raises "range" (Invalid_argument "Imc.make: state out of range")
    (fun () ->
       ignore
         (Imc.make ~nb_states:1 ~initial:0 ~labels
            ~interactive:[ (0, 0, 5) ]
            ~markovian:[]))

(* ---- compositional IMC construction ---- *)

let spec_of = Mv_calc.Parser.spec_of_string_checked

let mm1_network () =
  let open Mv_imc.Network in
  let producer = of_spec "producer" (spec_of "process P := rate 2.0 ; push ; P\ninit P") in
  let queue =
    of_spec "queue"
      (spec_of
         "process Q (n : int[0..3]) := [n < 3] -> push ; Q(n+1) [] [n > 0] -> \
          pop ; Q(n-1)\ninit Q(0)")
  in
  let consumer = of_spec "consumer" (spec_of "process C := pop ; rate 3.0 ; C\ninit C") in
  Par ([ "pop" ], Par ([ "push" ], producer, queue), consumer)

let test_network_strategies_agree () =
  let node = mm1_network () in
  let mono = Mv_imc.Network.evaluate ~strategy:`Monolithic node in
  let comp = Mv_imc.Network.evaluate ~strategy:`Compositional node in
  Alcotest.(check bool) "stochastically bisimilar" true
    (Lump.equivalent mono.Mv_imc.Network.result comp.Mv_imc.Network.result);
  Alcotest.(check bool) "steps recorded" true
    (List.length comp.Mv_imc.Network.steps > List.length mono.Mv_imc.Network.steps)

let test_network_matches_monolithic_spec () =
  (* composing component IMCs = generating the composite spec *)
  let node = mm1_network () in
  let comp = Mv_imc.Network.evaluate ~strategy:`Compositional node in
  let perf =
    Mv_core.Flow.Run.performance_of_imc
      Mv_core.Flow.Config.(default |> with_keep [ "pop" ])
      comp.Mv_imc.Network.result
  in
  let tput = Mv_core.Flow.throughput perf ~gate:"pop" in
  let expected = Mv_xstream.Analytic.throughput ~arrival:2.0 ~service:3.0 ~k:5 in
  close ~eps:1e-8 "compositional IMC = closed form" expected tput

let test_network_lumps_symmetry () =
  (* a bank of identical engines lumps as it is composed *)
  let open Mv_imc.Network in
  let engine k =
    of_spec
      (Printf.sprintf "engine%d" k)
      (spec_of "process E := grab ; rate 2.0 ; done ; E\ninit E")
  in
  let source = of_spec "source" (spec_of "process S := rate 3.0 ; grab ; S\ninit S") in
  let bank = par_list [] [ engine 0; engine 1; engine 2 ] in
  let node = Hide ([ "grab" ], Par ([ "grab" ], source, bank)) in
  let mono = evaluate ~strategy:`Monolithic node in
  let comp = evaluate ~strategy:`Compositional node in
  Alcotest.(check bool)
    (Printf.sprintf "lumping reduces peak (%d vs %d)"
       comp.Mv_imc.Network.peak_states mono.Mv_imc.Network.peak_states)
    true
    (comp.Mv_imc.Network.peak_states <= mono.Mv_imc.Network.peak_states);
  Alcotest.(check bool) "final result smaller when lumped" true
    (Imc.nb_states comp.Mv_imc.Network.result
     < Imc.nb_states mono.Mv_imc.Network.result)

(* Property: lumping is sound on random IMCs - the quotient is
   stochastically bisimilar and the converted chains give the same
   visible-action throughputs. *)
let imc_gen =
  QCheck2.Gen.(
    let* nb_states = int_range 2 8 in
    let* markovian =
      list_size (int_range 1 12)
        (triple (int_bound (nb_states - 1))
           (float_range 0.5 4.0)
           (int_bound (nb_states - 1)))
    in
    let* interactive_raw =
      list_size (int_bound 5)
        (triple (int_bound (nb_states - 1))
           (oneofl [ "a"; "b"; "i" ])
           (int_bound (nb_states - 1)))
    in
    return (nb_states, markovian, interactive_raw))

let build_random_imc (nb_states, markovian, interactive_raw) =
  let labels = Label.create () in
  let interactive =
    List.map (fun (s, l, d) -> (s, Label.intern labels l, d)) interactive_raw
  in
  Imc.make ~nb_states ~initial:0 ~labels ~interactive ~markovian

let lump_sound_prop =
  QCheck2.Test.make ~name:"lump: quotient is stochastically bisimilar"
    ~count:60 imc_gen
    (fun description ->
       let imc = build_random_imc description in
       let lumped = Lump.minimize imc in
       Lump.equivalent imc lumped
       && Imc.nb_states (Lump.minimize lumped) = Imc.nb_states lumped)

let lump_preserves_throughput_prop =
  QCheck2.Test.make
    ~name:"lump: visible throughputs survive (when deterministic)" ~count:40
    imc_gen
    (fun description ->
       let imc = Imc.maximal_progress (build_random_imc description) in
       match To_ctmc.convert ~scheduler:To_ctmc.Fail imc with
       | exception To_ctmc.Nondeterministic _ -> true (* skip *)
       | exception To_ctmc.Divergence _ -> true (* skip *)
       | conv -> (
           match To_ctmc.convert ~scheduler:To_ctmc.Fail (Lump.minimize imc) with
           | exception To_ctmc.Divergence _ -> true
           | lumped_conv ->
             let tput c action =
               let pi = Ctmc.steady_state c.To_ctmc.ctmc in
               Ctmc.throughput c.To_ctmc.ctmc ~pi ~action
             in
             List.for_all
               (fun action ->
                  abs_float (tput conv action -. tput lumped_conv action) < 1e-6)
               [ "a"; "b" ]))

let suite =
  [
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "lts round trip" `Quick test_lts_round_trip;
    Alcotest.test_case "of_lts decodes rate labels" `Quick
      test_of_lts_decodes_rates;
    Alcotest.test_case "hide" `Quick test_hide;
    Alcotest.test_case "maximal progress" `Quick test_maximal_progress;
    Alcotest.test_case "parallel composition" `Quick test_par_sync;
    Alcotest.test_case "phase moments" `Quick test_phase_moments;
    Alcotest.test_case "phase process" `Quick test_phase_process_generates;
    Alcotest.test_case "phase absorption mean" `Quick test_phase_absorbing_mean;
    Alcotest.test_case "lumping merges branches" `Quick test_lump_erlang_branches;
    Alcotest.test_case "lumping distinguishes rates" `Quick
      test_lump_distinguishes_rates;
    Alcotest.test_case "vanishing chain collapse" `Quick
      test_to_ctmc_vanishing_chain;
    Alcotest.test_case "nondeterminism: uniform/fail/deterministic" `Quick
      test_to_ctmc_probabilistic_split;
    Alcotest.test_case "nondeterminism: scheduler bounds" `Quick
      test_to_ctmc_bounds;
    Alcotest.test_case "local bounds match exhaustive" `Quick
      test_local_bounds_match_exhaustive;
    Alcotest.test_case "divergence detected" `Quick test_to_ctmc_divergence;
    Alcotest.test_case "vanishing initial state" `Quick
      test_to_ctmc_vanishing_initial;
    Alcotest.test_case "urgency cut reported" `Quick test_urgency_cut_reported;
    Alcotest.test_case "imc validation" `Quick test_imc_validation;
    Alcotest.test_case "network: strategies agree" `Quick
      test_network_strategies_agree;
    Alcotest.test_case "network: matches closed form" `Quick
      test_network_matches_monolithic_spec;
    Alcotest.test_case "network: lumps symmetric banks" `Quick
      test_network_lumps_symmetry;
    QCheck_alcotest.to_alcotest lump_sound_prop;
    QCheck_alcotest.to_alcotest lump_preserves_throughput_prop;
  ]
