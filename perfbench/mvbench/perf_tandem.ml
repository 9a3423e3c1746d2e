(* perf_tandem: [mval solve -k pop] on the xSTream tandem, i.e.
   Ops.solve_texts. Arrival 2.9 against service 3.0 keeps the chain
   near saturation, so the Gauss-Seidel solve stays stiff. The only
   workload where lumping, IMC->CTMC and the solver do real work. *)

open Mv_core
module Json = Harness.Json

let arrival = 2.9
let transfer = 4.0
let service = 3.0

(* Throughput of the actions on [gate]. *)
let throughput ctmc ~pi ~gate =
  List.fold_left
    (fun acc (action, v) -> if Mv_lts.Label.gate action = gate then acc +. v else acc)
    0.0
    (Mv_markov.Ctmc.throughputs ctmc ~pi)

(* Flow.Run.performance, one layer at a time. *)
let traced_solve config text ~pop =
  let lts =
    Span.with_ "calc.generate" (fun () -> Flow.Run.generate config (Flow.model_of_text text))
  in
  let progressed =
    Span.with_ "imc.build" (fun () ->
        let imc = Mv_imc.Imc.of_lts lts in
        (* hide every gate not kept, as the flow does *)
        let labels = Mv_imc.Imc.labels imc in
        let gates =
          List.init (Mv_lts.Label.count labels - 1) (fun l ->
              Mv_lts.Label.gate (Mv_lts.Label.name labels (l + 1)))
          |> List.filter (fun g -> not (List.mem g config.Flow.Config.keep))
          |> List.sort_uniq compare
        in
        Mv_imc.Imc.maximal_progress (Mv_imc.Imc.hide imc ~gates))
  in
  let lumped, lump_alloc =
    Harness.measured_alloc (fun () ->
        Span.with_ "imc.lump" (fun () -> Mv_imc.Lump.minimize progressed))
  in
  let conversion =
    Span.with_ "imc.to_ctmc" (fun () ->
        Mv_imc.To_ctmc.convert ~scheduler:config.Flow.Config.scheduler lumped)
  in
  let ctmc = conversion.Mv_imc.To_ctmc.ctmc in
  let pi, stats =
    Span.with_ "markov.solve" (fun () -> Mv_markov.Ctmc.steady_state_stats ctmc)
  in
  let spans = Span.all () in
  let solve_s = Span.total_self_s spans "markov.solve" in
  let iterations = stats.Mv_markov.Solver_stats.iterations in
  let layers =
    [
      ("calc.generate.s", Span.total_self_s spans "calc.generate");
      ("calc.generate.states", float (Mv_lts.Lts.nb_states lts));
      ("calc.generate.transitions", float (Mv_lts.Lts.nb_transitions lts));
      ( "calc.generate.states_per_s",
        float (Mv_lts.Lts.nb_states lts) /. Span.total_self_s spans "calc.generate" );
      ("imc.build.s", Span.total_self_s spans "imc.build");
      ("imc.lump.s", Span.total_self_s spans "imc.lump");
      ("imc.lump.states_in", float (Mv_imc.Imc.nb_states progressed));
      ("imc.lump.states_out", float (Mv_imc.Imc.nb_states lumped));
      ("imc.lump.alloc_mw", lump_alloc);
      ("imc.to_ctmc.s", Span.total_self_s spans "imc.to_ctmc");
      ("imc.to_ctmc.ctmc_states", float (Mv_markov.Ctmc.nb_states ctmc));
      ("markov.solve.s", solve_s);
      ("markov.solve.iterations", float iterations);
      ("markov.solve.us_per_sweep", 1e6 *. solve_s /. float (max 1 iterations));
      ("markov.solve.residual", stats.Mv_markov.Solver_stats.residual);
    ]
  in
  ( [
      ("imc_states", Json.Int (Mv_lts.Lts.nb_states lts));
      ("lumped_states", Json.Int (Mv_imc.Imc.nb_states lumped));
      ("ctmc_states", Json.Int (Mv_markov.Ctmc.nb_states ctmc));
      ("converged", Json.Bool stats.Mv_markov.Solver_stats.converged);
      ("throughput", Json.Float (throughput ctmc ~pi ~gate:pop));
    ],
    layers )

(* The untraced pass reads the answers off the report a user sees:
   "IMC: a states; lumped: b; CTMC: c", one line per throughput, and a
   warning on stderr when the solve did not converge. *)
let answers_of_report (texts : Mv_serve.Ops.texts) ~pop =
  let lines = String.split_on_char '\n' texts.out in
  let sizes =
    match lines with
    | first :: _ -> (
      try
        Scanf.sscanf first "IMC: %d states; lumped: %d; CTMC: %d" (fun a b c ->
            [
              ("imc_states", Json.Int a);
              ("lumped_states", Json.Int b);
              ("ctmc_states", Json.Int c);
            ])
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> [])
    | [] -> []
  in
  let printed =
    List.find_map
      (fun l ->
        try Scanf.sscanf l "throughput %s %s" (fun a v -> if a = pop then Some v else None)
        with Scanf.Scan_failure _ | End_of_file -> None)
      lines
  in
  sizes
  @ [
      ("converged", Json.Bool (texts.err = "" && texts.code = 0));
      ("throughput_6g", Json.String (Option.value printed ~default:"missing"));
    ]

let setup ~size ~seed ~dir =
  let capacity = match size with Harness.Full -> 40 | Harness.Smoke -> 4 in
  let model = Models.tandem ~seed ~capacity ~arrival ~transfer ~service in
  let file = Filename.concat dir "tandem.mvl" in
  Out_channel.with_open_bin file (fun oc -> output_string oc model.tandem_text);
  let config = { Flow.Config.default with keep = [ model.pop ] } in
  let pass ~traced =
    let text = In_channel.with_open_bin file In_channel.input_all in
    let answers, layers =
      if traced then traced_solve config text ~pop:model.pop
      else
        let texts = Mv_serve.Ops.solve_texts config ~first:None (Flow.model_of_text text) in
        (answers_of_report texts ~pop:model.pop, [])
    in
    { Harness.latencies = []; attempted = 1; failed = 0; answers; layers }
  in
  {
    Harness.pass;
    finish = (fun ~traced:_ -> ([], 0));
    orphans = (fun () -> List.filter (( <> ) "tandem.mvl") (Harness.files dir));
    close = (fun () -> Harness.remove_tree dir);
  }

let workload = { Harness.name = "perf_tandem"; cores = 1; setup }
