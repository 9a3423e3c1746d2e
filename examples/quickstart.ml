(* Quickstart: model a producer / bounded buffer / consumer system in
   MVL, verify it, then decorate it with rates and predict its
   performance - the complete Multival flow in one page.

   Run with: dune exec examples/quickstart.exe *)

module Flow = Mv_core.Flow
module Formula = Mv_mcl.Formula
module Action = Mv_mcl.Action_formula

(* 1. The model: a LOTOS-like specification. [rate r ;] is a Markovian
   delay; everything else is plain rendezvous. *)
let model =
  Flow.model_of_text
    {|
process Producer := rate 2.0 ; put ; Producer
process Buffer (n : int[0..3]) :=
    [n < 3] -> put ; Buffer(n + 1)
 [] [n > 0] -> get ; Buffer(n - 1)
process Consumer := get ; rate 3.0 ; Consumer
init (Producer |[put]| Buffer(0)) |[get]| Consumer
|}

let () =
  (* 2. Functional verification: generate the state space, minimize it,
     check temporal properties. Every [Flow.Run] pipeline takes a
     [Flow.Config.t] first; here [put] is hidden before minimization. *)
  let verification =
    Flow.Run.verify Flow.Config.(default |> with_hide [ "put" ]) model
      [
        ("no deadlock", Formula.Macro.deadlock_free);
        ( "every put is eventually followed by a get",
          Formula.Macro.response ~trigger:(Action.Gate "put")
            ~reaction:(Action.Gate "get") );
        ("a get is always possible eventually",
         Formula.Macro.always
           (Formula.Macro.possibly (Formula.Macro.can_do (Action.Gate "get"))));
      ]
  in
  Format.printf "state space: %a@." Mv_lts.Lts.pp verification.Flow.lts;
  Format.printf "minimized  : %a@." Mv_lts.Lts.pp verification.Flow.minimized;
  List.iter
    (fun r ->
       Printf.printf "  %-45s %s\n" r.Flow.property_name
         (if r.Flow.holds then "holds" else "VIOLATED"))
    verification.Flow.results;

  (* 3. Performance evaluation: same model, stochastic pipeline.
     The [get] gate stays visible so its throughput can be queried. *)
  let perf =
    Flow.Run.performance Flow.Config.(default |> with_keep [ "get" ]) model
  in
  let throughput = Flow.throughput perf ~gate:"get" in
  Printf.printf "\nthroughput(get)        = %.4f jobs/s\n" throughput;
  Printf.printf "mean time to first get = %.4f s\n"
    (fst (Flow.time_to_first perf ~gate:"get"));
  Printf.printf "P(get by t=1)          = %.4f\n"
    (Flow.probability_by perf ~gate:"get" ~horizon:1.0);

  (* 4. Cross-validation with the discrete-event simulator. *)
  let simulated =
    Mv_sim.Des.throughput perf.Flow.imc ~action:"get" ~horizon:10_000.0
      ~seed:42L
  in
  Printf.printf "simulated throughput   = %.4f jobs/s (independent DES)\n"
    simulated
